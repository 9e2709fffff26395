// Package mpi is a deterministic message-passing runtime in the style of
// MPI, built on goroutines and channels. It exists for the comparison the
// paper's future-work section asks for: "a direct comparison with the
// MPI-based parallel reference implementation of NAS-MG would be
// interesting" (§7). internal/mgmpi implements a domain-decomposed MG on
// top of it; this package provides the SPMD substrate:
//
//   - the Transport interface (transport.go): point-to-point Send/Recv
//     with (source, tag) matching and per-pair FIFO ordering, the seam
//     that lets the same solver run on Go channels (this package) or on
//     real TCP sockets (internal/mpinet);
//   - World.Run, which launches one goroutine per rank over the channel
//     transport and joins them;
//   - Comm, the rank-facing communicator: blocking point-to-point ops
//     plus collective Barrier, AllReduce and Broadcast with deterministic
//     (rank-ordered) reduction — results are identical across runs;
//   - per-rank traffic statistics (message and byte counts), the basis of
//     the communication-cost reporting in EXPERIMENTS.md.
//
// The channel runtime is a simulation: all ranks share one address space
// and the "network" is Go channels, so it measures communication
// *structure* (counts, volumes, dependency patterns), not network
// latency; its Stats report zero wire bytes because nothing is framed or
// serialized. internal/mpinet is the same contract paying real costs.
package mpi

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/mempool"
	"repro/internal/metrics"
)

// Stats counts one rank's traffic.
type Stats struct {
	// Messages is the number of point-to-point sends (collectives are
	// built from sends and are therefore included).
	Messages uint64 `json:"messages"`
	// Bytes is the total payload volume sent, in bytes.
	Bytes uint64 `json:"bytes"`
	// WireBytes is the volume actually put on the wire, including
	// framing (headers and checksums). The in-process channel transport
	// reports zero: a simulated message pays no serialization.
	WireBytes uint64 `json:"wireBytes"`
	// ExchangeNanos is wall time spent blocked in communication (waiting
	// for mailbox space or for a peer's message). The channel transport
	// counts only blocked time — an immediate channel operation costs no
	// measurable exchange — while a real transport also pays framing and
	// kernel time on every call.
	ExchangeNanos int64 `json:"exchangeNanos"`

	// Peers breaks the traffic down per (peer, tag): counts, bytes and
	// blocked time in each direction, sorted by (peer, tag). The per-peer
	// blocked nanos sum to ExchangeNanos (see Stats.BlockedNanos).
	Peers []PeerStat `json:"peers,omitempty"`
	// BlockedHist holds per-call blocked nanoseconds, QueueDepthHist the
	// departure-queue depth seen at enqueue (mailbox fill here; mpinet has
	// no queue and records none).
	BlockedHist    metrics.Hist `json:"blockedHist"`
	QueueDepthHist metrics.Hist `json:"queueDepthHist"`
}

// DefaultStall bounds how long a channel-transport Send may wait on a
// full mailbox or a Recv on an empty one before failing with an error
// naming the (rank, tag) pair. A healthy halo exchange waits
// microseconds; minutes means the pairing is deadlocked. Override per
// world with World.Stall.
const DefaultStall = 2 * time.Minute

// World is one SPMD program instance: a fixed set of ranks and their
// mailboxes.
type World struct {
	// Stall overrides DefaultStall when positive: the longest a rank
	// blocks in Send/Recv before the operation fails diagnosably.
	Stall time.Duration

	size    int
	mail    [][]chan message // mail[src][dst]
	stats   []Stats
	rec     []CommRecorder // per-rank (peer, tag) rows and histograms
	barrier *barrier
	free    *mempool.Pool // payload copies in flight, back here on Release

	aborted   chan struct{} // closed when any rank panics
	abortOnce sync.Once
}

type message struct {
	tag  int
	data []float64
}

// mailboxDepth bounds in-flight messages per (src, dst) pair. MG's halo
// exchanges post at most two sends before the matching receives.
const mailboxDepth = 8

// NewWorld creates a world with the given number of ranks.
func NewWorld(size int) *World {
	if size < 1 {
		panic(fmt.Sprintf("mpi: invalid world size %d", size))
	}
	w := &World{
		size:    size,
		mail:    make([][]chan message, size),
		stats:   make([]Stats, size),
		rec:     make([]CommRecorder, size),
		barrier: newBarrier(size),
		free:    mempool.New(true),
		aborted: make(chan struct{}),
	}
	for src := 0; src < size; src++ {
		w.mail[src] = make([]chan message, size)
		for dst := 0; dst < size; dst++ {
			w.mail[src][dst] = make(chan message, mailboxDepth)
		}
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Stats returns a snapshot of every rank's traffic counters, including
// the per-(peer, tag) rows and histograms. Call after Run has returned.
func (w *World) Stats() []Stats {
	out := append([]Stats(nil), w.stats...)
	for rank := range out {
		w.rec[rank].SnapshotInto(&out[rank])
	}
	return out
}

// TotalStats sums the per-rank counters and merges the histograms; the
// per-peer rows are folded with MergePeers, so the totals describe
// world-wide volume per (peer, tag).
func (w *World) TotalStats() Stats {
	var t Stats
	for _, s := range w.Stats() {
		t.Messages += s.Messages
		t.Bytes += s.Bytes
		t.WireBytes += s.WireBytes
		t.ExchangeNanos += s.ExchangeNanos
		t.MergePeers(s.Peers)
		t.BlockedHist.Merge(&s.BlockedHist)
		t.QueueDepthHist.Merge(&s.QueueDepthHist)
	}
	return t
}

// Transport returns the channel transport of one rank — the same
// substrate World.Run wires up, for callers that drive a single rank
// directly (tests, mgmpi.NewWithTransport differential runs).
func (w *World) Transport(rank int) Transport {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: invalid rank %d", rank))
	}
	return &chanTransport{w: w, rank: rank}
}

// stall returns the effective Send/Recv stall bound.
func (w *World) stall() time.Duration {
	if w.Stall > 0 {
		return w.Stall
	}
	return DefaultStall
}

// abort marks the world failed: the barrier breaks and every rank
// blocked in Send/Recv fails with a dead-peer error.
func (w *World) abort() {
	w.barrier.abort()
	w.abortOnce.Do(func() { close(w.aborted) })
}

// Run executes body once per rank, concurrently, and waits for all ranks
// to return. A panic on any rank is re-raised on the caller after the
// remaining ranks have been given the chance to finish or abort: the
// world's barrier breaks and blocked Send/Recv calls fail, so no rank
// hangs on a dead peer. Run may be called multiple times on the same
// world; statistics accumulate.
func (w *World) Run(body func(c *Comm)) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked any
	)
	wg.Add(w.size)
	for rank := 0; rank < w.size; rank++ {
		go func(rank int) {
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if panicked == nil {
						panicked = fmt.Sprintf("mpi: rank %d panicked: %v", rank, r)
					}
					mu.Unlock()
					w.abort()
				}
				wg.Done()
			}()
			body(NewComm(&chanTransport{w: w, rank: rank}))
		}(rank)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// --- channel transport --------------------------------------------------------

// chanTransport is one rank's view of the in-process channel runtime: the
// original simulated network, now behind the Transport seam. Fast paths
// are the plain channel operations; only a full (or empty) mailbox takes
// the slow path that watches for world aborts and the stall bound.
//
// Blocking Send/Recv are implemented as Isend/Irecv + Wait, so blocking
// and nonblocking operations share one code path and one per-(peer,
// direction) FIFO chain — a blocking Send cannot overtake an Isend that
// is still queued behind a full mailbox. The accounting is equivalent:
// RecordSendPosted + RecordSendWait touch the same counters and observe
// the same histograms, once per message, as a single RecordSend.
type chanTransport struct {
	w    *World
	rank int

	sendChain OpChain // per-dst FIFO of in-flight sends
	recvChain OpChain // per-src FIFO of in-flight receives
}

func (t *chanTransport) Rank() int { return t.rank }
func (t *chanTransport) Size() int { return t.w.size }

// Stats returns this rank's counters, including the per-(peer, tag)
// rows and histograms.
func (t *chanTransport) Stats() Stats {
	s := t.w.stats[t.rank]
	t.w.rec[t.rank].SnapshotInto(&s)
	return s
}

// ExchangeNanos is Stats().ExchangeNanos without the snapshot, for the
// rank's own goroutine.
func (t *chanTransport) ExchangeNanos() int64 { return t.w.stats[t.rank].ExchangeNanos }

// Close is a no-op: the channel world owns no external resources.
func (t *chanTransport) Close() error { return nil }

// Release recycles a received payload as a later send's copy.
func (t *chanTransport) Release(payload []float64) { PutBuffer(t.w.free, payload) }

// Barrier uses the world's shared in-process barrier.
func (t *chanTransport) Barrier() error {
	t.w.barrier.await()
	return nil
}

func (t *chanTransport) Send(dst, tag int, data []float64) error {
	_, err := t.Isend(dst, tag, data).Wait()
	return err
}

func (t *chanTransport) Recv(src, tag int) ([]float64, error) {
	return t.Irecv(src, tag).Wait()
}

// Isend posts a send. The payload is copied and the message/byte counters
// and queue-depth sample are recorded here, at post time — the message is
// in flight whether or not the Request is ever waited. Blocked time (if
// the mailbox is full) is charged to the first Wait, on the waiting
// goroutine, which for this transport must be the rank's own: the
// aggregate Stats entry is goroutine-owned.
func (t *chanTransport) Isend(dst, tag int, data []float64) Request {
	w := t.w
	if dst < 0 || dst >= w.size {
		return CompletedRequest(nil, fmt.Errorf("invalid rank %d (world size %d)", dst, w.size))
	}
	buf := GetBuffer(w.free, len(data))
	copy(buf, data)
	m := message{tag: tag, data: buf}
	depth := len(w.mail[t.rank][dst])
	w.stats[t.rank].Messages++
	w.stats[t.rank].Bytes += uint64(len(data)) * 8
	w.rec[t.rank].RecordSendPosted(dst, tag, uint64(len(data))*8, depth)

	req := NewRequest(func(blocked int64, _ []float64, _ error) {
		w.stats[t.rank].ExchangeNanos += blocked
		w.rec[t.rank].RecordSendWait(dst, tag, blocked)
	})
	prev := t.sendChain.Push(dst, req)
	if prev == nil {
		// No predecessor in flight: try to deliver inline.
		select {
		case w.mail[t.rank][dst] <- m:
			req.Complete(nil, nil)
			return req
		default:
		}
	}
	go t.finishSend(req, prev, dst, m)
	return req
}

// finishSend completes a slow-path Isend: after the chained predecessor
// (if any) finishes, deliver with the same abort/stall watches blocking
// Send always had. It touches only channels and the request — never the
// rank's unsynchronized Stats.
func (t *chanTransport) finishSend(req, prev *AsyncRequest, dst int, m message) {
	w := t.w
	start := time.Now()
	timer := time.NewTimer(w.stall())
	defer timer.Stop()
	if prev != nil {
		select {
		case <-prev.Done():
		case <-w.aborted:
			req.Complete(nil, fmt.Errorf("world aborted while blocked on a full mailbox (peer rank %d may be dead)", dst))
			return
		case <-timer.C:
			req.Complete(nil, fmt.Errorf("mailbox full for %v — no matching Recv on rank %d (deadlocked exchange?)",
				time.Since(start).Round(time.Millisecond), dst))
			return
		}
	}
	select {
	case w.mail[t.rank][dst] <- m:
		req.Complete(nil, nil)
	case <-w.aborted:
		req.Complete(nil, fmt.Errorf("world aborted while blocked on a full mailbox (peer rank %d may be dead)", dst))
	case <-timer.C:
		req.Complete(nil, fmt.Errorf("mailbox full for %v — no matching Recv on rank %d (deadlocked exchange?)",
			time.Since(start).Round(time.Millisecond), dst))
	}
}

// Irecv posts a receive. Nothing is recorded at post time: the
// receive-side row (message, bytes, blocked time) is recorded by the
// first Wait, on the waiting goroutine — a dropped Request consumes its
// message in the background but was never observed by the caller, so it
// never appears in the stats.
func (t *chanTransport) Irecv(src, tag int) Request {
	w := t.w
	if src < 0 || src >= w.size {
		return CompletedRequest(nil, fmt.Errorf("invalid rank %d (world size %d)", src, w.size))
	}
	req := NewRequest(func(blocked int64, data []float64, err error) {
		w.stats[t.rank].ExchangeNanos += blocked
		if err == nil {
			w.rec[t.rank].RecordRecv(src, tag, uint64(len(data))*8, blocked)
		}
	})
	prev := t.recvChain.Push(src, req)
	if prev == nil {
		select {
		case m := <-w.mail[src][t.rank]:
			req.Complete(recvCheck(m, src, tag))
			return req
		default:
		}
	}
	go t.finishRecv(req, prev, src, tag)
	return req
}

// finishRecv completes a slow-path Irecv after its chained predecessor.
func (t *chanTransport) finishRecv(req, prev *AsyncRequest, src, tag int) {
	w := t.w
	start := time.Now()
	timer := time.NewTimer(w.stall())
	defer timer.Stop()
	if prev != nil {
		select {
		case <-prev.Done():
		case <-w.aborted:
			req.Complete(nil, fmt.Errorf("world aborted while waiting (peer rank %d may be dead)", src))
			return
		case <-timer.C:
			req.Complete(nil, fmt.Errorf("no message from rank %d for %v (deadlocked exchange?)",
				src, time.Since(start).Round(time.Millisecond)))
			return
		}
	}
	select {
	case m := <-w.mail[src][t.rank]:
		req.Complete(recvCheck(m, src, tag))
	case <-w.aborted:
		req.Complete(nil, fmt.Errorf("world aborted while waiting (peer rank %d may be dead)", src))
	case <-timer.C:
		req.Complete(nil, fmt.Errorf("no message from rank %d for %v (deadlocked exchange?)",
			src, time.Since(start).Round(time.Millisecond)))
	}
}

// recvCheck validates a popped message's tag against the posted receive.
func recvCheck(m message, src, tag int) ([]float64, error) {
	if m.tag != tag {
		return nil, fmt.Errorf("expected tag %d, got tag %d", tag, m.tag)
	}
	return m.data, nil
}

// --- reusable barrier ---------------------------------------------------------

type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	size    int
	waiting int
	gen     uint64
	broken  bool
}

func newBarrier(size int) *barrier {
	b := &barrier{size: size}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) await() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.broken {
		panic("mpi: barrier used after a rank panicked")
	}
	gen := b.gen
	b.waiting++
	if b.waiting == b.size {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen == b.gen && !b.broken {
		b.cond.Wait()
	}
	if b.broken {
		panic("mpi: barrier broken by a panicking rank")
	}
}

// abort releases any ranks blocked in the barrier after a panic.
func (b *barrier) abort() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.broken = true
	b.cond.Broadcast()
}
