// The V-cycle event tracer: a JSON-lines stream of level transitions,
// kernel spans, iteration markers and whole-solve summaries, for offline
// inspection of one benchmark run (cmd/mg -trace out.jsonl). One JSON
// object per line; the schema is the Event struct below (documented in
// DESIGN.md §3.2).
//
// In a resident service (cmd/mgd) many jobs interleave on one stream, so
// a Tracer can derive per-job views with ForJob: a view shares the
// stream, the epoch and the error state of its parent but stamps every
// event it emits with a trace ID and job ID. That is how one request's
// span tree (ingress → queue → solve → kernels) stays connected through
// a shared worker pool — cmd/mgtrace groups events by trace tag.
package metrics

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event is one trace record. Ev selects the kind; unused fields are
// omitted from the JSON:
//
//	span   one timed V-cycle region (Kernel = resid | smooth |
//	       fine2coarse | coarse2fine — the restrict/prolong spans keep
//	       their repository names) at Level, taking Nanos
//	wspan  one worker's busy slice of one parallel fan-out: Worker spent
//	       Nanos inside the loop body (sched.Pool with a tracer attached)
//	level  a V-cycle level transition: Dir "down" entering Level,
//	       "up" leaving it
//	iter   the start of MGrid iteration Iter (1-based)
//	solve  one whole benchmark solve: Nanos of wall time, final Rnm2
//	stage  one service-stage span of a daemon job (internal/jobq):
//	       Stage = ingress | queue | dedup | solve | respond, taking
//	       Nanos, always trace-tagged
//	send   one transport send by Rank to Peer under Tag: Bytes of
//	       payload, the Seq-th message on that (rank, peer, tag)
//	       stream, Nanos inside the Send call, at grid Level during
//	       iteration Iter (internal/mgmpi with tracing enabled)
//	recv   the matching receive on the other side, same tags; a merged
//	       multi-rank trace pairs each send with exactly one recv by
//	       (src, dst, tag, seq) — per-pair FIFO makes Seq line up
//	hello  a per-rank epoch anchor emitted right after the transport
//	       bootstrap completes (cmd/mgrank -trace), the coarse clock
//	       alignment that seeds the offset estimator in commtrace.go
//
// Rank tags the emitting simulated-MPI rank (internal/mgmpi); it is 0 —
// and omitted — for single-process runs, so traces from several ranks
// concatenate into one stream that mgtrace splits back into per-rank
// Perfetto processes.
//
// Trace and Job tag events emitted through a per-job tracer view
// (Tracer.ForJob): Trace is the request's 128-bit trace ID in hex, Job
// the jobq content address. Both are empty — and omitted — for one-shot
// CLI runs, so existing traces are unchanged byte for byte.
type Event struct {
	// T is nanoseconds since the tracer was created; Emit stamps it.
	T int64 `json:"t"`
	// Ev is the event kind: span, wspan, level, iter, solve or stage.
	Ev     string  `json:"ev"`
	Kernel string  `json:"kernel,omitempty"`
	Level  int     `json:"level,omitempty"`
	Dir    string  `json:"dir,omitempty"`
	Nanos  int64   `json:"ns,omitempty"`
	Iter   int     `json:"iter,omitempty"`
	Rnm2   float64 `json:"rnm2,omitempty"`
	Worker int     `json:"worker,omitempty"`
	Rank   int     `json:"rank,omitempty"`
	// Stage names the service stage of a "stage" event.
	Stage string `json:"stage,omitempty"`
	// Peer/Tag/Bytes/Seq describe one message of a send/recv event pair.
	// All four omit their zero values safely: tags start at 1, Seq 0 is
	// the first message of its stream, and a zero-byte payload is a
	// zero-length slice either way.
	Peer  int    `json:"peer,omitempty"`
	Tag   int    `json:"tag,omitempty"`
	Bytes int64  `json:"bytes,omitempty"`
	Seq   uint64 `json:"seq,omitempty"`
	// Trace/Job are the request-scoped tags of a daemon job's events.
	Trace string `json:"trace,omitempty"`
	Job   string `json:"job,omitempty"`
}

// tracerCore is the shared half of a Tracer: the locked stream, the
// epoch, and the sticky error state. Every view derived with ForJob
// points at the same core, so their events interleave on one stream
// with one consistent timebase.
type tracerCore struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	enc    *json.Encoder
	start  time.Time
	n      int
	err    error
	closed bool
}

// Tracer writes Events as JSON lines. A nil *Tracer is the disabled
// tracer: Emit is a no-op costing one nil check and no allocations.
// A Tracer is safe for concurrent use; the first encoding error sticks
// and suppresses further output (check Err or Close). Close is
// idempotent — the first call flushes and seals the stream, repeated
// calls return the same verdict, and events emitted after Close are
// dropped rather than written to a writer the caller may have closed.
//
// ForJob derives tagged views that share the stream; closing any view
// seals the stream for all of them (a service closes its tracer once,
// at shutdown).
type Tracer struct {
	core *tracerCore
	// trace/job stamp every event emitted through this view; empty on
	// the root tracer.
	trace, job string
}

// NewTracer creates a tracer writing to w. The stream is buffered; call
// Close (or Flush) when the run is done. The caller retains ownership of
// w and closes it after the tracer.
func NewTracer(w io.Writer) *Tracer {
	bw := bufio.NewWriter(w)
	return &Tracer{core: &tracerCore{bw: bw, enc: json.NewEncoder(bw), start: time.Now()}}
}

// ForJob derives a view of the tracer that stamps every emitted event
// with the given trace and job IDs. The view shares the parent's
// stream, epoch, counters and error state — events from many jobs
// interleave on one stream and mgtrace regroups them by tag. ForJob on
// a nil tracer returns nil (the disabled tracer propagates for free),
// so the call is safe on any service path.
func (t *Tracer) ForJob(traceID, jobID string) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{core: t.core, trace: traceID, job: jobID}
}

// Emit writes one event, stamping its T with the time since the tracer
// was created and, on a ForJob view, the view's trace/job tags (an
// event's own tags win if already set). Emit on a nil tracer is a
// no-op, as is Emit after Close (late events from defers on error paths
// are dropped, not written).
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	if e.Trace == "" {
		e.Trace = t.trace
	}
	if e.Job == "" {
		e.Job = t.job
	}
	c := t.core
	c.mu.Lock()
	if c.err == nil && !c.closed {
		e.T = int64(time.Since(c.start))
		if err := c.enc.Encode(e); err != nil {
			c.err = err
		} else {
			c.n++
		}
	}
	c.mu.Unlock()
}

// Events returns the number of events written so far (across all views
// of the stream).
func (t *Tracer) Events() int {
	if t == nil {
		return 0
	}
	t.core.mu.Lock()
	defer t.core.mu.Unlock()
	return t.core.n
}

func (c *tracerCore) flushLocked() error {
	if c.closed {
		return c.err
	}
	if err := c.bw.Flush(); err != nil && c.err == nil {
		c.err = err
	}
	return c.err
}

// Close flushes and seals the stream; it does not close the underlying
// writer. Close is idempotent: the first call does the flush (and on an
// error path records the flush error), every later call returns the
// same verdict without re-touching the writer — so paired defers in
// both a helper and its caller are safe, even when the writer has been
// closed in between. Closing any ForJob view seals the shared stream.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.core.mu.Lock()
	defer t.core.mu.Unlock()
	err := t.core.flushLocked()
	t.core.closed = true
	return err
}
