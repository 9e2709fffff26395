package mpinet

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"
)

// The bootstrap. Rank 0 is the rendezvous point: it listens on the
// well-known address and every other rank dials it (with retry/backoff,
// so the N processes may be launched in any order) and sends a hello —
// protocol version, rank id, world size, grid class, and the address of
// its own freshly opened mesh listener. Once all N−1 ranks have joined,
// rank 0 answers each with the address book and the mesh is completed
// pairwise: for every pair the higher rank dials the lower rank's
// listener and identifies itself with the same hello; the rank-0 pairs
// reuse the rendezvous connections. Any disagreement — version, world
// size, class, duplicate or out-of-range rank — aborts the bootstrap
// with a typed error on both sides of the offending connection.
//
// Hello frame (little-endian):
//
//	u32 magic "MGHL" · u16 version · u32 rank · u32 size · u8 class ·
//	u16 addrLen · addr
//
// Rendezvous reply:
//
//	u32 magic · u16 version · u8 status · u16 msgLen · msg ·
//	[status 0] (size−1) × (u16 addrLen · addr)   — mesh addrs of ranks 1..N−1

type hello struct {
	version uint16
	rank    int
	size    int
	class   byte
	addr    string
}

const (
	statusOK      = 0
	statusVersion = 1
	statusRefused = 2
)

func writeHello(conn net.Conn, timeout time.Duration, h hello) error {
	buf := make([]byte, 0, 17+len(h.addr))
	buf = binary.LittleEndian.AppendUint32(buf, helloMagic)
	buf = binary.LittleEndian.AppendUint16(buf, h.version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.rank))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.size))
	buf = append(buf, h.class)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(h.addr)))
	buf = append(buf, h.addr...)
	conn.SetWriteDeadline(time.Now().Add(timeout))
	_, err := conn.Write(buf)
	return err
}

func readHello(conn net.Conn, timeout time.Duration) (hello, error) {
	conn.SetReadDeadline(time.Now().Add(timeout))
	var fixed [17]byte
	if _, err := io.ReadFull(conn, fixed[:]); err != nil {
		return hello{}, &HandshakeError{Peer: -1, Reason: fmt.Sprintf("short hello: %v", err)}
	}
	if m := binary.LittleEndian.Uint32(fixed[0:]); m != helloMagic {
		return hello{}, &HandshakeError{Peer: -1, Reason: fmt.Sprintf("bad hello magic %08x", m)}
	}
	h := hello{
		version: binary.LittleEndian.Uint16(fixed[4:]),
		rank:    int(binary.LittleEndian.Uint32(fixed[6:])),
		size:    int(binary.LittleEndian.Uint32(fixed[10:])),
		class:   fixed[14],
	}
	addrLen := int(binary.LittleEndian.Uint16(fixed[15:]))
	if addrLen > 0 {
		addr := make([]byte, addrLen)
		if _, err := io.ReadFull(conn, addr); err != nil {
			return hello{}, &HandshakeError{Peer: h.rank, Reason: fmt.Sprintf("short hello address: %v", err)}
		}
		h.addr = string(addr)
	}
	return h, nil
}

func writeReply(conn net.Conn, timeout time.Duration, status byte, msg string, addrs []string) error {
	buf := make([]byte, 0, 9+len(msg))
	buf = binary.LittleEndian.AppendUint32(buf, helloMagic)
	buf = binary.LittleEndian.AppendUint16(buf, ProtocolVersion)
	buf = append(buf, status)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(msg)))
	buf = append(buf, msg...)
	if status == statusOK {
		for _, a := range addrs[1:] { // rank 0's address is already known
			buf = binary.LittleEndian.AppendUint16(buf, uint16(len(a)))
			buf = append(buf, a...)
		}
	}
	conn.SetWriteDeadline(time.Now().Add(timeout))
	_, err := conn.Write(buf)
	return err
}

// readReply parses the rendezvous answer on a joiner. The wait is
// bounded by the rendezvous timeout, not the I/O timeout: rank 0 only
// answers once the slowest rank has joined.
func readReply(conn net.Conn, timeout time.Duration, size int) ([]string, error) {
	conn.SetReadDeadline(time.Now().Add(timeout))
	var fixed [9]byte
	if _, err := io.ReadFull(conn, fixed[:]); err != nil {
		return nil, &HandshakeError{Peer: 0, Reason: fmt.Sprintf("short rendezvous reply: %v", err)}
	}
	if m := binary.LittleEndian.Uint32(fixed[0:]); m != helloMagic {
		return nil, &HandshakeError{Peer: 0, Reason: fmt.Sprintf("bad reply magic %08x", m)}
	}
	if v := binary.LittleEndian.Uint16(fixed[4:]); v != ProtocolVersion {
		return nil, &VersionError{Want: ProtocolVersion, Got: v}
	}
	status := fixed[6]
	msg := make([]byte, binary.LittleEndian.Uint16(fixed[7:]))
	if _, err := io.ReadFull(conn, msg); err != nil {
		return nil, &HandshakeError{Peer: 0, Reason: fmt.Sprintf("short reply detail: %v", err)}
	}
	switch status {
	case statusOK:
	case statusVersion:
		return nil, &VersionError{Want: ProtocolVersion, Got: ProtocolVersion} // unreachable: version surfaced above
	default:
		return nil, &HandshakeError{Peer: 0, Reason: string(msg)}
	}
	addrs := make([]string, size)
	for rank := 1; rank < size; rank++ {
		var l [2]byte
		if _, err := io.ReadFull(conn, l[:]); err != nil {
			return nil, &HandshakeError{Peer: 0, Reason: fmt.Sprintf("short directory: %v", err)}
		}
		a := make([]byte, binary.LittleEndian.Uint16(l[:]))
		if _, err := io.ReadFull(conn, a); err != nil {
			return nil, &HandshakeError{Peer: 0, Reason: fmt.Sprintf("short directory: %v", err)}
		}
		addrs[rank] = string(a)
	}
	return addrs, nil
}

// Rendezvous is rank 0's open bootstrap: the listener exists (Addr
// reports the bound address, useful with a ":0" ephemeral port) but the
// world is not yet assembled.
type Rendezvous struct {
	cfg Config
	ln  net.Listener
}

// Listen binds rank 0's rendezvous listener. Complete the bootstrap
// with Accept.
func Listen(cfg Config) (*Rendezvous, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Rank != 0 {
		return nil, fmt.Errorf("mpinet: Listen is rank 0's side of the bootstrap, got rank %d", cfg.Rank)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("mpinet: rendezvous listen on %s: %w", cfg.Addr, err)
	}
	return &Rendezvous{cfg: cfg, ln: ln}, nil
}

// Addr returns the bound rendezvous address — the string ranks 1..N−1
// must dial.
func (r *Rendezvous) Addr() string { return r.ln.Addr().String() }

// Close abandons a rendezvous without completing it.
func (r *Rendezvous) Close() error { return r.ln.Close() }

// Accept waits for all N−1 ranks to join, validates every handshake,
// distributes the address book, and returns rank 0's transport. On any
// protocol disagreement it aborts with a typed error; if the world is
// still incomplete at the rendezvous timeout it returns a TimeoutError
// naming the missing ranks.
func (r *Rendezvous) Accept() (*Transport, error) {
	cfg := r.cfg
	defer r.ln.Close()
	if tl, ok := r.ln.(*net.TCPListener); ok {
		tl.SetDeadline(time.Now().Add(cfg.rendezvousTimeout()))
	}
	conns := make([]net.Conn, cfg.Size)
	addrs := make([]string, cfg.Size)
	closeAll := func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}
	for joined := 0; joined < cfg.Size-1; joined++ {
		conn, err := r.ln.Accept()
		if err != nil {
			closeAll()
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return nil, &TimeoutError{Peer: -1, Op: missingRanks(conns, cfg.Size), Wait: cfg.rendezvousTimeout()}
			}
			return nil, fmt.Errorf("mpinet: rendezvous accept: %w", err)
		}
		h, err := readHello(conn, cfg.IOTimeout)
		if err != nil {
			conn.Close()
			closeAll()
			return nil, err
		}
		if h.version != ProtocolVersion {
			writeReply(conn, cfg.IOTimeout, statusVersion, "", nil)
			conn.Close()
			closeAll()
			return nil, &VersionError{Want: ProtocolVersion, Got: h.version}
		}
		refuse := func(reason string) (*Transport, error) {
			writeReply(conn, cfg.IOTimeout, statusRefused, reason, nil)
			conn.Close()
			closeAll()
			return nil, &HandshakeError{Peer: h.rank, Reason: reason}
		}
		switch {
		case h.rank < 1 || h.rank >= cfg.Size:
			return refuse(fmt.Sprintf("rank %d outside world of size %d", h.rank, cfg.Size))
		case conns[h.rank] != nil:
			return refuse(fmt.Sprintf("rank %d joined twice", h.rank))
		case h.size != cfg.Size:
			return refuse(fmt.Sprintf("world size mismatch: rendezvous has %d, joiner has %d", cfg.Size, h.size))
		case h.class != cfg.Class && h.class != 0 && cfg.Class != 0:
			return refuse(fmt.Sprintf("grid class mismatch: rendezvous solves %c, joiner solves %c", cfg.Class, h.class))
		case h.addr == "":
			return refuse(fmt.Sprintf("rank %d advertised no mesh address", h.rank))
		}
		conns[h.rank] = conn
		addrs[h.rank] = h.addr
	}
	for rank := 1; rank < cfg.Size; rank++ {
		if err := writeReply(conns[rank], cfg.IOTimeout, statusOK, "", addrs); err != nil {
			closeAll()
			return nil, &PeerError{Peer: rank, Op: "handshake", Err: err}
		}
	}
	peers := make([]*peer, cfg.Size)
	for rank := 1; rank < cfg.Size; rank++ {
		peers[rank] = newPeer(rank, conns[rank])
	}
	return newTransport(cfg, peers), nil
}

// missingRanks describes which ranks never joined, for the rendezvous
// timeout error.
func missingRanks(conns []net.Conn, size int) string {
	var missing []int
	for rank := 1; rank < size; rank++ {
		if conns[rank] == nil {
			missing = append(missing, rank)
		}
	}
	return fmt.Sprintf("rendezvous (ranks %v never joined)", missing)
}

// dialRetry dials an address with the configured retry/backoff, so the
// N processes of a world may start in any order.
func dialRetry(addr string, cfg Config) (net.Conn, error) {
	var lastErr error
	for attempt := 0; attempt < cfg.DialRetries; attempt++ {
		conn, err := net.DialTimeout("tcp", addr, cfg.IOTimeout)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		time.Sleep(cfg.DialBackoff)
	}
	return nil, fmt.Errorf("%w (after %d attempts, %v apart)", lastErr, cfg.DialRetries, cfg.DialBackoff)
}

// Join is a non-zero rank's side of the bootstrap: dial the rendezvous,
// hello, receive the address book, and complete this rank's slice of
// the mesh (dial every lower rank, accept every higher one).
func Join(cfg Config) (*Transport, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Rank == 0 {
		return nil, fmt.Errorf("mpinet: Join is for ranks 1..N-1; rank 0 uses Listen/Accept")
	}
	conn, err := dialRetry(cfg.Addr, cfg)
	if err != nil {
		return nil, fmt.Errorf("mpinet: rank %d: dialing rendezvous %s: %w", cfg.Rank, cfg.Addr, err)
	}
	// The mesh listener binds the interface this rank reached rank 0
	// from, so the advertised address is reachable by the other ranks.
	host, _, err := net.SplitHostPort(conn.LocalAddr().String())
	if err != nil {
		conn.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", net.JoinHostPort(host, "0"))
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("mpinet: rank %d: mesh listen: %w", cfg.Rank, err)
	}
	fail := func(err error) (*Transport, error) {
		conn.Close()
		ln.Close()
		return nil, err
	}
	h := hello{version: ProtocolVersion, rank: cfg.Rank, size: cfg.Size, class: cfg.Class, addr: ln.Addr().String()}
	if err := writeHello(conn, cfg.IOTimeout, h); err != nil {
		return fail(&PeerError{Peer: 0, Op: "handshake", Err: err})
	}
	addrs, err := readReply(conn, cfg.rendezvousTimeout(), cfg.Size)
	if err != nil {
		return fail(err)
	}
	peers := make([]*peer, cfg.Size)
	peers[0] = newPeer(0, conn)
	closePeers := func() {
		for _, p := range peers {
			if p != nil {
				p.conn.Close()
			}
		}
	}
	// Dial the mesh listeners of every lower rank.
	for rank := 1; rank < cfg.Rank; rank++ {
		mc, err := dialRetry(addrs[rank], cfg)
		if err != nil {
			closePeers()
			ln.Close()
			return nil, &PeerError{Peer: rank, Op: "mesh dial", Err: err}
		}
		if err := writeHello(mc, cfg.IOTimeout, hello{version: ProtocolVersion, rank: cfg.Rank, size: cfg.Size, class: cfg.Class}); err != nil {
			mc.Close()
			closePeers()
			ln.Close()
			return nil, &PeerError{Peer: rank, Op: "mesh handshake", Err: err}
		}
		peers[rank] = newPeer(rank, mc)
	}
	// Accept the dials of every higher rank.
	if tl, ok := ln.(*net.TCPListener); ok {
		tl.SetDeadline(time.Now().Add(cfg.rendezvousTimeout()))
	}
	for have := cfg.Rank + 1; have < cfg.Size; have++ {
		mc, err := ln.Accept()
		if err != nil {
			closePeers()
			ln.Close()
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return nil, &TimeoutError{Peer: -1, Op: "mesh accept (higher ranks never dialed)", Wait: cfg.rendezvousTimeout()}
			}
			return nil, fmt.Errorf("mpinet: rank %d: mesh accept: %w", cfg.Rank, err)
		}
		ph, err := readHello(mc, cfg.IOTimeout)
		if err != nil {
			mc.Close()
			closePeers()
			ln.Close()
			return nil, err
		}
		switch {
		case ph.version != ProtocolVersion:
			mc.Close()
			closePeers()
			ln.Close()
			return nil, &VersionError{Want: ProtocolVersion, Got: ph.version}
		case ph.rank <= cfg.Rank || ph.rank >= cfg.Size || ph.size != cfg.Size ||
			(ph.class != cfg.Class && ph.class != 0 && cfg.Class != 0):
			mc.Close()
			closePeers()
			ln.Close()
			return nil, &HandshakeError{Peer: ph.rank, Reason: "inconsistent mesh hello"}
		case peers[ph.rank] != nil:
			mc.Close()
			closePeers()
			ln.Close()
			return nil, &HandshakeError{Peer: ph.rank, Reason: fmt.Sprintf("rank %d dialed twice", ph.rank)}
		}
		peers[ph.rank] = newPeer(ph.rank, mc)
	}
	ln.Close()
	return newTransport(cfg, peers), nil
}

// Bootstrap opens one rank's transport: rank 0 listens on cfg.Addr and
// waits for the world, every other rank joins it. The convenience path
// for cmd/mgrank, where the rendezvous address is fixed; tests that
// need an ephemeral port use Listen/Accept + Join directly.
func Bootstrap(cfg Config) (*Transport, error) {
	if cfg.Rank == 0 {
		rz, err := Listen(cfg)
		if err != nil {
			return nil, err
		}
		return rz.Accept()
	}
	return Join(cfg)
}
