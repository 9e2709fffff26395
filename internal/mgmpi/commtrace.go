// Distributed trace instrumentation: a Transport wrapper that emits one
// "send"/"recv" event per point-to-point call, tagged with enough context
// (rank, peer, tag, level, iteration, bytes, per-stream sequence number)
// for cmd/mgtrace to pair both sides of every exchange across merged
// per-rank trace files and align their clocks (DESIGN.md §3.5).
//
// The wrapper exists only while Solver.Trace is set; the untraced path
// never constructs it, so disabling observability costs nothing — the
// zero-alloc guarantee a benchmark in mgmpi_test.go pins.
package mgmpi

import (
	"repro/internal/metrics"
	"repro/internal/mpi"
)

// seqKey identifies one FIFO message stream from this rank's viewpoint:
// the remote rank and the tag.
type seqKey struct{ peer, tag int }

// commObserver wraps a Transport and emits a trace event per completed
// Send/Recv. Both transports guarantee per-(pair, direction) FIFO
// delivery, so numbering each (peer, tag) stream independently on both
// sides makes (src, dst, tag, seq) a globally unique pairing key: the
// n-th send on a stream is received by the n-th matching recv.
//
// A Send or Recv event carries what the transport charged that call as
// blocked time — the difference of its running total around the call —
// so the traced and the transport's views bracket one region and agree
// exactly, however the rank is descheduled around the call.
//
// level and iter are plain fields written by the owning rank's goroutine
// between communication phases (a rank's solve is single-threaded); the
// wrapper is NOT safe for concurrent use by multiple goroutines, matching
// the solver's use of its Comm.
type commObserver struct {
	inner mpi.Transport
	clock blockedClock // inner's running blocked-time total
	tr    *metrics.Tracer
	rank  int
	level int
	iter  int

	sendSeq map[seqKey]uint64
	recvSeq map[seqKey]uint64
}

var _ mpi.Transport = (*commObserver)(nil)

// blockedClock reads a transport's Stats().ExchangeNanos without the
// snapshot. Both transports implement it.
type blockedClock interface{ ExchangeNanos() int64 }

func newCommObserver(inner mpi.Transport, tr *metrics.Tracer) *commObserver {
	return &commObserver{
		inner:   inner,
		clock:   inner.(blockedClock),
		tr:      tr,
		rank:    inner.Rank(),
		sendSeq: map[seqKey]uint64{},
		recvSeq: map[seqKey]uint64{},
	}
}

func (o *commObserver) Rank() int           { return o.inner.Rank() }
func (o *commObserver) Size() int           { return o.inner.Size() }
func (o *commObserver) Stats() mpi.Stats    { return o.inner.Stats() }
func (o *commObserver) Close() error        { return o.inner.Close() }
func (o *commObserver) Release(p []float64) { o.inner.Release(p) }

func (o *commObserver) Send(dst, tag int, data []float64) error {
	before := o.clock.ExchangeNanos()
	if err := o.inner.Send(dst, tag, data); err != nil {
		return err
	}
	k := seqKey{dst, tag}
	seq := o.sendSeq[k]
	o.sendSeq[k] = seq + 1
	o.tr.Emit(metrics.Event{
		Ev: "send", Rank: o.rank, Peer: dst, Tag: tag,
		Level: o.level, Iter: o.iter,
		Bytes: int64(8 * len(data)), Seq: seq,
		Nanos: o.clock.ExchangeNanos() - before,
	})
	return nil
}

func (o *commObserver) Recv(src, tag int) ([]float64, error) {
	before := o.clock.ExchangeNanos()
	data, err := o.inner.Recv(src, tag)
	if err != nil {
		return nil, err
	}
	k := seqKey{src, tag}
	seq := o.recvSeq[k]
	o.recvSeq[k] = seq + 1
	o.tr.Emit(metrics.Event{
		Ev: "recv", Rank: o.rank, Peer: src, Tag: tag,
		Level: o.level, Iter: o.iter,
		Bytes: int64(8 * len(data)), Seq: seq,
		Nanos: o.clock.ExchangeNanos() - before,
	})
	return data, nil
}
