// Package mpinet is the real-network counterpart of the in-process
// channel runtime in internal/mpi: an implementation of mpi.Transport
// over TCP sockets, for runs where every rank is its own OS process
// (cmd/mgrank). Where the channel world measures communication
// *structure*, this transport pays the actual costs — serialization,
// framing, checksums, kernel round-trips — and reports them (wire bytes
// and exchange wall-time) through the extended mpi.Stats.
//
// Topology: a full mesh. Rank 0 listens on a well-known address; ranks
// 1..N-1 dial it (with retry/backoff, so processes may start in any
// order) and exchange a handshake carrying rank id, world size, grid
// class and protocol version, plus the address of their own mesh
// listener. Once everyone has joined, rank 0 distributes the address
// book and each pair of ranks establishes one TCP connection (the higher
// rank dials the lower; connections to rank 0 reuse the rendezvous
// sockets). Every connection then gets one reader goroutine, which fills
// a bounded per-peer inbox that Recv pops from and notices a peer's death
// while the rank computes. There is no writer goroutine: Send builds the
// frame and writes it to the socket itself, under the peer's write lock,
// so per-peer FIFO is program order and a full socket buffer is the
// backpressure.
//
// Failure is loud by construction: read/write deadlines bound every
// wire operation, a Recv waits at most the configured IOTimeout, and the
// first failure closes the transport, propagates a typed error (see
// errors.go) to every blocked call, and relays an abort frame naming the
// dead rank to all surviving peers — so killing one rank fails the whole
// world within the deadline, with the culprit named, instead of hanging.
package mpinet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mempool"
	"repro/internal/mpi"
)

// Config describes one rank's slot in a TCP world.
type Config struct {
	// Rank is this process's rank, 0 <= Rank < Size.
	Rank int
	// Size is the world size.
	Size int
	// Addr is the rendezvous address: the address rank 0 listens on,
	// and the address every other rank dials.
	Addr string
	// Class is the NPB grid class the world will solve (e.g. 'S'); the
	// handshake rejects a joiner solving a different problem. Zero
	// disables the check.
	Class byte
	// DialRetries is how many times a joiner re-dials the rendezvous
	// (and mesh peers) before giving up. Default 60.
	DialRetries int
	// DialBackoff is the pause between dial attempts. Default 250ms.
	DialBackoff time.Duration
	// IOTimeout bounds every wire operation: frame reads and writes, a
	// Recv with no matching message, the wait for a peer's write lock.
	// Default 30s.
	IOTimeout time.Duration
}

// withDefaults fills unset tunables.
func (c Config) withDefaults() Config {
	if c.DialRetries <= 0 {
		c.DialRetries = 60
	}
	if c.DialBackoff <= 0 {
		c.DialBackoff = 250 * time.Millisecond
	}
	if c.IOTimeout <= 0 {
		c.IOTimeout = 30 * time.Second
	}
	return c
}

// rendezvousTimeout bounds the whole bootstrap: every rank must have
// joined and the directory must be distributed within it.
func (c Config) rendezvousTimeout() time.Duration {
	return c.IOTimeout + time.Duration(c.DialRetries)*c.DialBackoff
}

func (c Config) validate() error {
	if c.Size < 1 {
		return fmt.Errorf("mpinet: invalid world size %d", c.Size)
	}
	if c.Rank < 0 || c.Rank >= c.Size {
		return fmt.Errorf("mpinet: rank %d outside world of size %d", c.Rank, c.Size)
	}
	if c.Addr == "" {
		return errors.New("mpinet: no rendezvous address")
	}
	return nil
}

// inboxDepth bounds buffered inbound messages per peer; beyond it the
// reader goroutine stops draining the socket and TCP flow control
// pushes back on the sender.
const inboxDepth = 64

// peer is one established connection: the lock its frames are written
// under, and a reader goroutine filling a bounded inbox.
type peer struct {
	rank  int
	conn  net.Conn
	wlock chan struct{} // one slot: held while a frame is written to conn
	inbox chan inMsg    // decoded messages awaiting Recv
}

func newPeer(rank int, conn net.Conn) *peer {
	return &peer{rank: rank, conn: conn, wlock: make(chan struct{}, 1), inbox: make(chan inMsg, inboxDepth)}
}

type inMsg struct {
	tag  int
	data []float64
}

// Transport is one rank's end of a TCP world. It implements
// mpi.Transport; wrap it in mpi.NewComm for the collective API, or hand
// it to mgmpi.NewWithTransport to run the solver on it.
type Transport struct {
	cfg   Config
	rank  int
	size  int
	peers []*peer // indexed by rank; peers[rank] is nil

	failed    chan struct{} // closed on first failure; failErr is set before
	relayed   chan struct{} // closed once that failure's abort relay is written
	closed    chan struct{} // closed by Close
	failErr   error
	failOnce  sync.Once
	closeOnce sync.Once
	readWg    sync.WaitGroup

	msgs, payloadBytes, wireBytes atomic.Uint64
	exchangeNanos                 atomic.Int64
	rec                           mpi.CommRecorder

	// free recycles frames (built and written by the sender, then here) and
	// received payloads (reader → Recv caller → Release → here); DESIGN.md
	// §4 item 8.
	free *mempool.Pool
}

var _ mpi.Transport = (*Transport)(nil)

// newTransport starts one reader goroutine per peer of an established mesh.
func newTransport(cfg Config, peers []*peer) *Transport {
	t := &Transport{
		cfg:     cfg,
		rank:    cfg.Rank,
		size:    cfg.Size,
		peers:   peers,
		free:    mempool.New(true),
		failed:  make(chan struct{}),
		relayed: make(chan struct{}),
		closed:  make(chan struct{}),
	}
	for _, p := range peers {
		if p == nil {
			continue
		}
		t.readWg.Add(1)
		go t.readLoop(p)
	}
	return t
}

// Rank returns this process's rank.
func (t *Transport) Rank() int { return t.rank }

// Size returns the world size.
func (t *Transport) Size() int { return t.size }

// Err returns the failure that broke the transport, or nil.
func (t *Transport) Err() error {
	select {
	case <-t.failed:
		return t.failErr
	default:
		return nil
	}
}

// Stats snapshots this rank's traffic counters: message and payload
// counts like the channel runtime, plus the wire volume (payload +
// framing), the wall time spent inside Send/Recv, and the per-(peer,
// tag) rows with blocked-time and queue-depth histograms. Safe to call
// concurrently with a solve (the Prometheus endpoint scrapes it live).
func (t *Transport) Stats() mpi.Stats {
	s := mpi.Stats{
		Messages:      t.msgs.Load(),
		Bytes:         t.payloadBytes.Load(),
		WireBytes:     t.wireBytes.Load(),
		ExchangeNanos: t.exchangeNanos.Load(),
	}
	t.rec.SnapshotInto(&s)
	return s
}

// ExchangeNanos is Stats().ExchangeNanos without the snapshot: the time
// charged as blocked so far.
func (t *Transport) ExchangeNanos() int64 { return t.exchangeNanos.Load() }

// frame builds an outgoing message in a recycled buffer; write gives it
// back once it is on the socket.
func (t *Transport) frame(tag int, data []float64) []float64 {
	return buildFrame(mpi.GetBuffer(t.free, frameWords(len(data))), t.rank, tag, data)
}

// Release recycles a received payload as a later frame or payload.
func (t *Transport) Release(payload []float64) { mpi.PutBuffer(t.free, payload) }

// write puts one frame on p's socket under p's write lock and recycles it.
// The lock is waited for at most IOTimeout — its holder is itself bounded
// by the write deadline — and the write gets IOTimeout more, so a full
// socket buffer is the backpressure and a wedged peer a typed error.
func (t *Transport) write(p *peer, tag int, frame []float64) error {
	defer mpi.PutBuffer(t.free, frame)
	select {
	case p.wlock <- struct{}{}:
	default:
		timer := time.NewTimer(t.cfg.IOTimeout)
		defer timer.Stop()
		select {
		case p.wlock <- struct{}{}:
		case <-timer.C:
			return &TimeoutError{Peer: p.rank, Tag: tag, Op: "write lock", Wait: t.cfg.IOTimeout}
		}
	}
	defer func() { <-p.wlock }()
	p.conn.SetWriteDeadline(time.Now().Add(t.cfg.IOTimeout))
	if _, err := p.conn.Write(frameBytes(frame)); err != nil {
		return &PeerError{Peer: p.rank, Op: "write", Err: err}
	}
	return nil
}

// Send frames data and writes it to dst's socket from the calling
// goroutine before it returns, so sends to one peer reach the wire in
// program order. It blocks only while the socket buffer is full, at most
// IOTimeout. A failed write has torn the stream: it fails the transport,
// naming dst.
func (t *Transport) Send(dst, tag int, data []float64) error {
	start := time.Now()
	if dst < 0 || dst >= t.size || dst == t.rank {
		return fmt.Errorf("invalid destination rank %d (world size %d, self %d)", dst, t.size, t.rank)
	}
	select {
	case <-t.failed:
		return t.failErr
	case <-t.closed:
		return net.ErrClosed
	default:
	}
	frame := t.frame(tag, data)
	wire := len(frameBytes(frame))
	if err := t.write(t.peers[dst], tag, frame); err != nil {
		if !t.isShutdown() {
			t.fail(err)
		}
		return err
	}
	elapsed := int64(time.Since(start))
	t.msgs.Add(1)
	t.payloadBytes.Add(uint64(8 * len(data)))
	t.wireBytes.Add(uint64(wire))
	t.exchangeNanos.Add(elapsed)
	t.rec.RecordSend(dst, tag, uint64(8*len(data)), elapsed, mpi.NoQueue)
	return nil
}

// Recv blocks for the next message from src, at most IOTimeout, and
// checks its tag (per-connection FIFO makes a mismatch a protocol
// error).
func (t *Transport) Recv(src, tag int) ([]float64, error) {
	if src < 0 || src >= t.size || src == t.rank {
		return nil, fmt.Errorf("invalid source rank %d (world size %d, self %d)", src, t.size, t.rank)
	}
	start := time.Now()
	p := t.peers[src]
	var m inMsg
	select {
	case m = <-p.inbox:
	default:
		timer := time.NewTimer(t.cfg.IOTimeout)
		defer timer.Stop()
		select {
		case m = <-p.inbox:
		case <-t.failed:
			// The world failed, but this message may have been delivered
			// just before — prefer handing it over (the peer's final
			// send races its own teardown).
			select {
			case m = <-p.inbox:
			default:
				return nil, t.failErr
			}
		case <-t.closed:
			return nil, net.ErrClosed
		case <-timer.C:
			return nil, &TimeoutError{Peer: src, Tag: tag, Op: "Recv", Wait: t.cfg.IOTimeout}
		}
	}
	if m.tag != tag {
		return nil, fmt.Errorf("expected tag %d from rank %d, got tag %d", tag, src, m.tag)
	}
	elapsed := int64(time.Since(start))
	t.exchangeNanos.Add(elapsed)
	t.rec.RecordRecv(src, tag, uint64(8*len(m.data)), elapsed)
	return m.data, nil
}

// Close tears the mesh down: a goodbye to every peer, written under its
// lock and so after every frame this rank posted (and after the abort
// relay of a failure), then the sockets close, the readers exit, and
// blocked calls unblock. Safe to call more than once.
func (t *Transport) Close() error {
	t.closeOnce.Do(func() {
		select {
		case <-t.failed:
			<-t.relayed // a peer stops reading at the goodbye
		default:
		}
		// Announce the clean departure so peers still mid-solve don't
		// mistake the coming EOF for a death (best-effort: a peer that
		// cannot take 20 bytes at shutdown is already abnormal).
		for _, p := range t.peers {
			if p != nil {
				t.write(p, tagGoodbye, t.frame(tagGoodbye, nil))
			}
		}
		close(t.closed)
		for _, p := range t.peers {
			if p != nil {
				p.conn.Close()
			}
		}
		t.readWg.Wait()
	})
	return nil
}

// isShutdown reports whether Close was called (so conn errors during
// teardown are expected, not failures).
func (t *Transport) isShutdown() bool {
	select {
	case <-t.closed:
		return true
	default:
		return false
	}
}

// fail records the first failure and unblocks every pending call, then
// relays a best-effort abort frame naming the dead rank to all other
// peers, so the rest of the world fails with the culprit's name instead of
// a cascade of secondary timeouts. Each relay waits for its peer's write
// lock at most IOTimeout.
func (t *Transport) fail(err error) {
	first := false
	t.failOnce.Do(func() {
		t.failErr = err
		close(t.failed)
		first = true
	})
	if !first {
		return
	}
	defer close(t.relayed)
	culprit := -1
	var dead *PeerDeadError
	var pe *PeerError
	var fe *FrameError
	var ce *ChecksumError
	switch {
	case errors.As(err, &dead):
		culprit = dead.Peer
	case errors.As(err, &pe):
		culprit = pe.Peer
	case errors.As(err, &fe):
		culprit = fe.Peer
	case errors.As(err, &ce):
		culprit = ce.Peer
	}
	if culprit < 0 {
		return
	}
	for _, p := range t.peers {
		if p != nil && p.rank != culprit {
			t.write(p, tagAbort, t.frame(tagAbort, []float64{float64(culprit)}))
		}
	}
}

// readLoop decodes frames off one peer's socket into its inbox. The
// blocking read for the next frame's first byte carries no deadline (a
// rank legitimately receives nothing while it computes); once a frame
// has started, the rest of it must arrive within IOTimeout or it is a
// torn frame.
func (t *Transport) readLoop(p *peer) {
	defer t.readWg.Done()
	br := bufio.NewReaderSize(p.conn, 1<<16)
	hdr := make([]byte, headerLen)
	for {
		p.conn.SetReadDeadline(time.Time{})
		if _, err := br.Peek(1); err != nil {
			if !t.isShutdown() {
				t.fail(&PeerError{Peer: p.rank, Op: "read", Err: err})
			}
			return
		}
		p.conn.SetReadDeadline(time.Now().Add(t.cfg.IOTimeout))
		h, data, err := recvFrame(br, hdr, p.rank, t.free)
		if err != nil {
			t.failRead(p, err)
			return
		}
		if h.tag == tagGoodbye {
			// The peer finished and is closing; its EOF is expected.
			return
		}
		if h.tag == tagAbort {
			culprit := -1
			if len(data) == 1 {
				culprit = int(data[0])
			}
			t.fail(&PeerDeadError{Peer: culprit, Via: p.rank})
			return
		}
		select {
		case p.inbox <- inMsg{tag: h.tag, data: data}:
		case <-t.closed:
			return
		case <-t.failed:
			return
		}
	}
}

// failRead reports a read-side failure unless the transport is shutting
// down (teardown makes socket errors expected).
func (t *Transport) failRead(p *peer, err error) {
	if !t.isShutdown() {
		t.fail(err)
	}
}
