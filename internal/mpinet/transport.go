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
// sockets). Every connection then gets a reader goroutine and a writer
// goroutine with a bounded outgoing queue — Send enqueues a frame and
// blocks only when the queue is full (backpressure), Recv pops from the
// per-peer inbox.
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
	// Recv with no matching message, a Send on a full writer queue.
	// Default 30s.
	IOTimeout time.Duration
	// QueueDepth bounds each peer's outgoing writer queue (frames), the
	// backpressure window. Default 16.
	QueueDepth int
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
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
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

// peer is one established connection: a writer goroutine draining a
// bounded queue, and a reader goroutine filling a bounded inbox.
type peer struct {
	rank  int
	conn  net.Conn
	out   chan []float64 // built frames (buildFrame) awaiting the writer
	inbox chan inMsg     // decoded messages awaiting Recv
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
	closed    chan struct{} // closed by Close
	failErr   error
	failOnce  sync.Once
	closeOnce sync.Once
	readWg    sync.WaitGroup
	writeWg   sync.WaitGroup

	msgs, payloadBytes, wireBytes atomic.Uint64
	exchangeNanos                 atomic.Int64
	rec                           mpi.CommRecorder

	// free recycles frames (sender → writer → here) and received payloads
	// (reader → Recv caller → Release → here); DESIGN.md §4 item 8.
	free *mempool.Pool

	sendChain mpi.OpChain // per-dst FIFO of in-flight nonblocking sends
	recvChain mpi.OpChain // per-src FIFO of in-flight nonblocking receives
}

var _ mpi.Transport = (*Transport)(nil)

// newTransport wires up the goroutines over an established mesh.
func newTransport(cfg Config, peers []*peer) *Transport {
	t := &Transport{
		cfg:    cfg,
		rank:   cfg.Rank,
		size:   cfg.Size,
		peers:  peers,
		free:   mempool.New(true),
		failed: make(chan struct{}),
		closed: make(chan struct{}),
	}
	for _, p := range peers {
		if p == nil {
			continue
		}
		t.readWg.Add(1)
		t.writeWg.Add(1)
		go t.readLoop(p)
		go t.writeLoop(p)
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

// awaitChain blocks until a still-in-flight nonblocking predecessor on
// the same stream completes, so a blocking call posted after an Isend or
// Irecv cannot overtake it (per-pair FIFO holds across both APIs). The
// time spent here falls inside the blocking call's own elapsed window,
// so it is accounted exactly like any other wait.
func (t *Transport) awaitChain(prev *mpi.AsyncRequest, peer, tag int, op string) error {
	if prev == nil {
		return nil
	}
	timer := time.NewTimer(t.cfg.IOTimeout)
	defer timer.Stop()
	select {
	case <-prev.Done():
		return nil
	case <-t.failed:
		return t.failErr
	case <-t.closed:
		return net.ErrClosed
	case <-timer.C:
		return &TimeoutError{Peer: peer, Tag: tag, Op: op, Wait: t.cfg.IOTimeout}
	}
}

// frame builds an outgoing message in a recycled buffer; the writer gives
// it back once it is on the socket.
func (t *Transport) frame(tag int, data []float64) []float64 {
	return buildFrame(mpi.GetBuffer(t.free, frameWords(len(data))), t.rank, tag, data)
}

// Release recycles a received payload as a later frame or payload.
func (t *Transport) Release(payload []float64) { mpi.PutBuffer(t.free, payload) }

// Send frames data and enqueues it on dst's writer. It blocks only when
// the bounded queue is full (backpressure), and at most IOTimeout.
func (t *Transport) Send(dst, tag int, data []float64) error {
	if dst < 0 || dst >= t.size || dst == t.rank {
		return fmt.Errorf("invalid destination rank %d (world size %d, self %d)", dst, t.size, t.rank)
	}
	start := time.Now()
	if err := t.awaitChain(t.sendChain.Pending(dst), dst, tag, "Send (pending Isend)"); err != nil {
		return err
	}
	frame := t.frame(tag, data)
	p := t.peers[dst]
	depth := len(p.out)
	select {
	case p.out <- frame:
	default:
		timer := time.NewTimer(t.cfg.IOTimeout)
		defer timer.Stop()
		select {
		case p.out <- frame:
		case <-t.failed:
			return t.failErr
		case <-t.closed:
			return net.ErrClosed
		case <-timer.C:
			return &TimeoutError{Peer: dst, Tag: tag, Op: "Send (writer queue full)", Wait: t.cfg.IOTimeout}
		}
	}
	elapsed := int64(time.Since(start))
	t.msgs.Add(1)
	t.payloadBytes.Add(uint64(8 * len(data)))
	t.wireBytes.Add(uint64(len(frameBytes(frame))))
	t.exchangeNanos.Add(elapsed)
	t.rec.RecordSend(dst, tag, uint64(8*len(data)), elapsed, depth)
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
	if err := t.awaitChain(t.recvChain.Pending(src), src, tag, "Recv (pending Irecv)"); err != nil {
		return nil, err
	}
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

// Isend frames data at post time and hands it to dst's writer without
// blocking: the per-peer writer queue is already asynchronous under the
// hood, so the fast path is one non-blocking channel send. Message, byte
// and wire counters are recorded here — the frame is in flight whether or
// not the Request is ever waited — while blocked time (a full writer
// queue, or a transport failure) is charged to the first Wait. A dead
// peer therefore surfaces as the typed error (PeerDeadError et al.) at
// Wait, never as a hang.
func (t *Transport) Isend(dst, tag int, data []float64) mpi.Request {
	if dst < 0 || dst >= t.size || dst == t.rank {
		return mpi.CompletedRequest(nil, fmt.Errorf("invalid destination rank %d (world size %d, self %d)", dst, t.size, t.rank))
	}
	frame := t.frame(tag, data)
	p := t.peers[dst]
	depth := len(p.out)
	t.msgs.Add(1)
	t.payloadBytes.Add(uint64(8 * len(data)))
	t.wireBytes.Add(uint64(len(frameBytes(frame))))
	t.rec.RecordSendPosted(dst, tag, uint64(8*len(data)), depth)
	req := mpi.NewRequest(func(blocked int64, _ []float64, _ error) {
		t.exchangeNanos.Add(blocked)
		t.rec.RecordSendWait(dst, tag, blocked)
	})
	prev := t.sendChain.Push(dst, req)
	if prev == nil {
		select {
		case p.out <- frame:
			req.Complete(nil, nil)
			return req
		default:
		}
	}
	go t.finishIsend(req, prev, p, dst, tag, frame)
	return req
}

// finishIsend completes a slow-path Isend: after the chained predecessor
// (if any), enqueue under the same failure/timeout watches blocking Send
// has.
func (t *Transport) finishIsend(req, prev *mpi.AsyncRequest, p *peer, dst, tag int, frame []float64) {
	timer := time.NewTimer(t.cfg.IOTimeout)
	defer timer.Stop()
	if prev != nil {
		select {
		case <-prev.Done():
		case <-t.failed:
			req.Complete(nil, t.failErr)
			return
		case <-t.closed:
			req.Complete(nil, net.ErrClosed)
			return
		case <-timer.C:
			req.Complete(nil, &TimeoutError{Peer: dst, Tag: tag, Op: "Isend (writer queue full)", Wait: t.cfg.IOTimeout})
			return
		}
	}
	select {
	case p.out <- frame:
		req.Complete(nil, nil)
	case <-t.failed:
		req.Complete(nil, t.failErr)
	case <-t.closed:
		req.Complete(nil, net.ErrClosed)
	case <-timer.C:
		req.Complete(nil, &TimeoutError{Peer: dst, Tag: tag, Op: "Isend (writer queue full)", Wait: t.cfg.IOTimeout})
	}
}

// Irecv posts a receive against src's reader inbox. Nothing is recorded
// at post time; the receive row and blocked time are recorded by the
// first Wait — a dropped Request consumes its message in the background
// but was never observed by the caller.
func (t *Transport) Irecv(src, tag int) mpi.Request {
	if src < 0 || src >= t.size || src == t.rank {
		return mpi.CompletedRequest(nil, fmt.Errorf("invalid source rank %d (world size %d, self %d)", src, t.size, t.rank))
	}
	p := t.peers[src]
	req := mpi.NewRequest(func(blocked int64, data []float64, err error) {
		t.exchangeNanos.Add(blocked)
		if err == nil {
			t.rec.RecordRecv(src, tag, uint64(8*len(data)), blocked)
		}
	})
	prev := t.recvChain.Push(src, req)
	if prev == nil {
		select {
		case m := <-p.inbox:
			req.Complete(t.checkTag(m, src, tag))
			return req
		default:
		}
	}
	go t.finishIrecv(req, prev, p, src, tag)
	return req
}

// finishIrecv completes a slow-path Irecv after its chained predecessor,
// with the same delivered-just-before-failure drain nicety blocking Recv
// has.
func (t *Transport) finishIrecv(req, prev *mpi.AsyncRequest, p *peer, src, tag int) {
	timer := time.NewTimer(t.cfg.IOTimeout)
	defer timer.Stop()
	if prev != nil {
		select {
		case <-prev.Done():
		case <-t.failed:
			req.Complete(nil, t.failErr)
			return
		case <-t.closed:
			req.Complete(nil, net.ErrClosed)
			return
		case <-timer.C:
			req.Complete(nil, &TimeoutError{Peer: src, Tag: tag, Op: "Irecv", Wait: t.cfg.IOTimeout})
			return
		}
	}
	select {
	case m := <-p.inbox:
		req.Complete(t.checkTag(m, src, tag))
	case <-t.failed:
		select {
		case m := <-p.inbox:
			req.Complete(t.checkTag(m, src, tag))
		default:
			req.Complete(nil, t.failErr)
		}
	case <-t.closed:
		req.Complete(nil, net.ErrClosed)
	case <-timer.C:
		req.Complete(nil, &TimeoutError{Peer: src, Tag: tag, Op: "Irecv", Wait: t.cfg.IOTimeout})
	}
}

// checkTag validates a popped message against the posted receive's tag.
func (t *Transport) checkTag(m inMsg, src, tag int) ([]float64, error) {
	if m.tag != tag {
		return nil, fmt.Errorf("expected tag %d from rank %d, got tag %d", tag, src, m.tag)
	}
	return m.data, nil
}

// Close tears the mesh down: the writers flush whatever is still
// queued (so a final broadcast enqueued just before Close reaches the
// wire before the process exits), then the sockets close, the readers
// exit, and blocked calls unblock. Safe to call more than once.
func (t *Transport) Close() error {
	t.closeOnce.Do(func() {
		// Announce the clean departure so peers still mid-solve don't
		// mistake the coming EOF for a death (best-effort: a full queue
		// at shutdown is already abnormal). One frame per peer: each
		// writer recycles the one it wrote.
		for _, p := range t.peers {
			if p != nil {
				select {
				case p.out <- t.frame(tagGoodbye, nil):
				default:
				}
			}
		}
		close(t.closed)
		t.writeWg.Wait()
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

// fail records the first failure, unblocks every pending call, and
// relays a best-effort abort frame naming the dead rank to all peers so
// the rest of the world fails with the culprit's name instead of a
// cascade of secondary timeouts.
func (t *Transport) fail(err error) {
	t.failOnce.Do(func() {
		t.failErr = err
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
		if culprit >= 0 {
			for _, p := range t.peers {
				if p != nil && p.rank != culprit {
					select {
					case p.out <- t.frame(tagAbort, []float64{float64(culprit)}):
					default: // full queue: the peer will find out the hard way
					}
				}
			}
		}
		close(t.failed)
	})
}

// writeLoop drains one peer's queue onto the socket under a write
// deadline. It keeps running after a failure (to flush the abort frame)
// and exits on Close or a broken socket.
func (t *Transport) writeLoop(p *peer) {
	defer t.writeWg.Done()
	write := func(frame []float64) bool {
		p.conn.SetWriteDeadline(time.Now().Add(t.cfg.IOTimeout))
		if _, err := p.conn.Write(frameBytes(frame)); err != nil {
			if !t.isShutdown() {
				t.fail(&PeerError{Peer: p.rank, Op: "write", Err: err})
			}
			return false
		}
		mpi.PutBuffer(t.free, frame)
		return true
	}
	for {
		select {
		case frame := <-p.out:
			if !write(frame) {
				return
			}
		case <-t.closed:
			// Flush the remaining queue before Close drops the socket.
			for {
				select {
				case frame := <-p.out:
					if !write(frame) {
						return
					}
				default:
					return
				}
			}
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
