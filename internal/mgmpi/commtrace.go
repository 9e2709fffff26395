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
	"time"

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
// level and iter are plain fields written by the owning rank's goroutine
// between communication phases (a rank's solve is single-threaded); the
// wrapper is NOT safe for concurrent use by multiple goroutines, matching
// the solver's use of its Comm.
//
// commObserver deliberately does not implement the optional Barrier
// method: the solver never calls Comm.Barrier, and hiding the inner
// transport's native barrier keeps the wrapper honest about what it can
// sequence-number (a native barrier would bypass Send/Recv accounting).
type commObserver struct {
	inner mpi.Transport
	tr    *metrics.Tracer
	rank  int
	level int
	iter  int

	sendSeq map[seqKey]uint64
	recvSeq map[seqKey]uint64
}

var _ mpi.Transport = (*commObserver)(nil)

func newCommObserver(inner mpi.Transport, tr *metrics.Tracer) *commObserver {
	return &commObserver{
		inner:   inner,
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
	start := time.Now()
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
		Nanos: int64(time.Since(start)),
	})
	return nil
}

func (o *commObserver) Recv(src, tag int) ([]float64, error) {
	start := time.Now()
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
		Nanos: int64(time.Since(start)),
	})
	return data, nil
}

// Isend emits its send event at post time — the message is on its way
// from here, and the pairing window against the matching recv must span
// the compute the caller overlaps, not collapse to the Wait. Nanos is
// the post call's own (near-zero) duration; the blocked tail lives in
// the transport's Wait-side accounting. The sequence number is taken at
// post, which is delivery order on a FIFO stream.
func (o *commObserver) Isend(dst, tag int, data []float64) mpi.Request {
	start := time.Now()
	req := o.inner.Isend(dst, tag, data)
	k := seqKey{dst, tag}
	seq := o.sendSeq[k]
	o.sendSeq[k] = seq + 1
	o.tr.Emit(metrics.Event{
		Ev: "send", Rank: o.rank, Peer: dst, Tag: tag,
		Level: o.level, Iter: o.iter,
		Bytes: int64(8 * len(data)), Seq: seq,
		Nanos: int64(time.Since(start)),
	})
	return req
}

// Irecv assigns the stream sequence number at post (post order is
// delivery order on a FIFO stream) but emits the recv event from the
// first Wait, when the payload — and its true size — exists. The event's
// Nanos is the time that Wait blocked: the exposed (non-overlapped) part
// of the exchange, which is exactly what the overlap report should see.
func (o *commObserver) Irecv(src, tag int) mpi.Request {
	k := seqKey{src, tag}
	seq := o.recvSeq[k]
	o.recvSeq[k] = seq + 1
	return &tracedRecv{
		req: o.inner.Irecv(src, tag),
		o:   o, src: src, tag: tag, seq: seq,
		level: o.level, iter: o.iter,
	}
}

// tracedRecv wraps an Irecv request to emit the recv trace event exactly
// once, on the first successful Wait/Test. The level/iter context is
// captured at post time — the event must describe the phase that posted
// the receive, not whatever phase the solver is in when it waits.
type tracedRecv struct {
	req         mpi.Request
	o           *commObserver
	src, tag    int
	seq         uint64
	level, iter int
	emitted     bool
}

func (r *tracedRecv) emit(data []float64, err error, nanos int64) {
	if r.emitted || err != nil {
		return
	}
	r.emitted = true
	r.o.tr.Emit(metrics.Event{
		Ev: "recv", Rank: r.o.rank, Peer: r.src, Tag: r.tag,
		Level: r.level, Iter: r.iter,
		Bytes: int64(8 * len(data)), Seq: r.seq,
		Nanos: nanos,
	})
}

func (r *tracedRecv) Wait() ([]float64, error) {
	start := time.Now()
	data, err := r.req.Wait()
	r.emit(data, err, int64(time.Since(start)))
	return data, err
}

func (r *tracedRecv) Test() (bool, []float64, error) {
	done, data, err := r.req.Test()
	if done {
		r.emit(data, err, 0)
	}
	return done, data, err
}
