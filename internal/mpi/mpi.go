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
//     plus a root-to-all Broadcast (reductions are the caller's: mgmpi
//     folds its norm partials at rank 0 in rank order, so results are
//     identical across runs);
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
	// Messages is the number of point-to-point sends (Broadcast is built
	// from sends and is therefore included).
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

	size  int
	mail  [][]chan message // mail[src][dst]
	stats []Stats
	rec   []CommRecorder // per-rank (peer, tag) rows and histograms
	free  *mempool.Pool  // payload copies in flight, back here on Release

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
// per-peer rows are folded with mergePeers, so the totals describe
// world-wide volume per (peer, tag).
func (w *World) TotalStats() Stats {
	var t Stats
	for _, s := range w.Stats() {
		t.Messages += s.Messages
		t.Bytes += s.Bytes
		t.WireBytes += s.WireBytes
		t.ExchangeNanos += s.ExchangeNanos
		t.mergePeers(s.Peers)
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

// abort marks the world failed: every rank blocked in Send/Recv fails
// with a dead-peer error.
func (w *World) abort() {
	w.abortOnce.Do(func() { close(w.aborted) })
}

// Run executes body once per rank, concurrently, and waits for all ranks
// to return. A panic on any rank is re-raised on the caller after the
// remaining ranks have been given the chance to finish or abort: blocked
// Send/Recv calls fail, so no rank hangs on a dead peer. Run may be called multiple times on the same
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
// original simulated network, behind the Transport seam. Fast paths are
// the plain channel operations; only a full (or empty) mailbox takes the
// slow path that watches for world aborts and the stall bound. Both run on
// the calling goroutine, which must be the rank's own: the aggregate Stats
// entry is goroutine-owned.
type chanTransport struct {
	w    *World
	rank int
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

// Send copies data into the dst mailbox. A full mailbox blocks, at most
// the stall bound, and the wait is charged as exchange time.
func (t *chanTransport) Send(dst, tag int, data []float64) error {
	w := t.w
	if dst < 0 || dst >= w.size {
		return fmt.Errorf("invalid rank %d (world size %d)", dst, w.size)
	}
	buf := GetBuffer(w.free, len(data))
	copy(buf, data)
	m := message{tag: tag, data: buf}
	box := w.mail[t.rank][dst]
	depth := len(box)
	var blocked int64
	select {
	case box <- m:
	default:
		start := time.Now()
		timer := time.NewTimer(w.stall())
		defer timer.Stop()
		select {
		case box <- m:
			blocked = int64(time.Since(start))
		case <-w.aborted:
			return fmt.Errorf("world aborted while blocked on a full mailbox (peer rank %d may be dead)", dst)
		case <-timer.C:
			return fmt.Errorf("mailbox full for %v — no matching Recv on rank %d (deadlocked exchange?)",
				time.Since(start).Round(time.Millisecond), dst)
		}
	}
	st := &w.stats[t.rank]
	st.Messages++
	st.Bytes += uint64(len(data)) * 8
	st.ExchangeNanos += blocked
	w.rec[t.rank].RecordSend(dst, tag, uint64(len(data))*8, blocked, depth)
	return nil
}

// Recv pops the next message from src's mailbox and checks its tag. An
// empty mailbox blocks, at most the stall bound, and the wait is charged
// as exchange time.
func (t *chanTransport) Recv(src, tag int) ([]float64, error) {
	w := t.w
	if src < 0 || src >= w.size {
		return nil, fmt.Errorf("invalid rank %d (world size %d)", src, w.size)
	}
	box := w.mail[src][t.rank]
	var m message
	var blocked int64
	select {
	case m = <-box:
	default:
		start := time.Now()
		timer := time.NewTimer(w.stall())
		defer timer.Stop()
		select {
		case m = <-box:
			blocked = int64(time.Since(start))
		case <-w.aborted:
			return nil, fmt.Errorf("world aborted while waiting (peer rank %d may be dead)", src)
		case <-timer.C:
			return nil, fmt.Errorf("no message from rank %d for %v (deadlocked exchange?)",
				src, time.Since(start).Round(time.Millisecond))
		}
	}
	w.stats[t.rank].ExchangeNanos += blocked
	if m.tag != tag {
		return nil, fmt.Errorf("expected tag %d, got tag %d", tag, m.tag)
	}
	w.rec[t.rank].RecordRecv(src, tag, uint64(len(m.data))*8, blocked)
	return m.data, nil
}
