package jobq

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"repro/internal/mempool"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
)

// State is a job's position in its lifecycle.
type State string

const (
	// StateQueued: admitted, waiting for a runner.
	StateQueued State = "queued"
	// StateRunning: a runner is executing the solve.
	StateRunning State = "running"
	// StateDone: finished successfully; the result is cached.
	StateDone State = "done"
	// StateFailed: the solve errored or produced a non-finite norm.
	StateFailed State = "failed"
	// StateCancelled: every waiting client released the job (or the queue
	// shut down) before it finished.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// StageBreakdown is the stage decomposition a Result carries.
type StageBreakdown = obs.Stages

// Result is the full record of one job: identity, lifecycle, norms,
// verification and accounting. It is a value type — lookups return
// copies, so readers never race the runner.
type Result struct {
	// ID is the content address (Request.ID).
	ID string `json:"id"`
	// TraceID is the trace identity of the submission that created the
	// job (dedup attachers and cache hits see their own trace IDs in
	// their responses, the job keeps its creator's).
	TraceID string `json:"traceId,omitempty"`
	// Request is the normalized request that defines the job.
	Request Request `json:"request"`
	// State is the lifecycle position at lookup time.
	State State `json:"state"`
	// Rnm2 and Rnmu are the NPB residual norms (valid when State is done).
	Rnm2 float64 `json:"rnm2,omitempty"`
	Rnmu float64 `json:"rnmu,omitempty"`
	// Verified is the NPB acceptance verdict against the published
	// constant; nil when no constant applies (non-default seed or
	// iteration count, or a class without an official reference).
	Verified *bool `json:"verified,omitempty"`
	// Health is the convergence monitor's verdict for sac solves
	// (healthy, converged, stalled, diverging, nonfinite).
	Health string `json:"health,omitempty"`
	// Error describes the failure when State is failed.
	Error string `json:"error,omitempty"`
	// Cached is set on responses served from the result cache.
	Cached bool `json:"cached,omitempty"`
	// QueueSeconds is the admission-to-start wait; SolveSeconds the
	// execution time of the solve itself.
	QueueSeconds float64 `json:"queueSeconds,omitempty"`
	SolveSeconds float64 `json:"solveSeconds,omitempty"`
	// Stages is the full per-stage latency decomposition, populated on
	// the terminal transition (nil while the job is in flight).
	Stages *StageBreakdown `json:"stages,omitempty"`
	// MemAllocs/MemReuses are the job's private mempool-scope counters:
	// fresh allocations versus buffers recycled from the shared arena.
	MemAllocs uint64 `json:"memAllocs,omitempty"`
	MemReuses uint64 `json:"memReuses,omitempty"`
}

// RunFunc executes one solve. The context is cancelled when every waiter
// releases the job or the queue shuts down; implementations should poll
// it between iterations and return ctx.Err(). Solver returns the real
// implementation; tests substitute stubs.
type RunFunc func(ctx context.Context, req Request) (Result, error)

// Config configures a Queue. The zero value is usable: shared runtimes,
// the real solver, capacity 64, one runner.
type Config struct {
	// Capacity bounds the number of admitted-but-unfinished jobs. A full
	// queue rejects with *FullError (HTTP 429). Default 64.
	Capacity int
	// Runners is the number of jobs solved concurrently. Each runner
	// drives its solve over the shared worker pool, so this multiplexes
	// jobs over threads rather than multiplying them. Default 1.
	Runners int
	// CacheEntries bounds the result cache. Default 256.
	CacheEntries int
	// Priorities maps tenant names to scheduling priority; higher runs
	// first. Unlisted tenants (and the anonymous tenant) run at 0.
	Priorities map[string]int
	// Run executes solves; nil selects Solver(Sched, Mem).
	Run RunFunc
	// Sched is the worker pool for solves; nil selects sched.Shared().
	Sched *sched.Pool
	// Mem is the buffer arena for solves; nil selects mempool.Shared().
	Mem *mempool.Pool
	// Obs is the request-scoped observability layer: structured logs,
	// mgd_stage_seconds histograms and the flight recorder. nil disables
	// all three at the cost of one nil check per lifecycle transition.
	Obs *obs.Observer
	// Trace, when non-nil, receives trace-tagged service-stage events
	// (ingress, queue, dedup, solve) for every job, on the same stream
	// the solver's kernel spans land on — the raw material of the
	// per-job Perfetto span tree. nil disables stage tracing for free.
	Trace *metrics.Tracer
}

// FullError is the admission-control rejection: the queue is at
// capacity. RetryAfter estimates when a slot will free up, from the
// solve-time EMA and the backlog — the value behind the HTTP
// Retry-After header.
type FullError struct {
	Capacity   int
	RetryAfter time.Duration
}

// Error implements error.
func (e *FullError) Error() string {
	return fmt.Sprintf("jobq: queue full (%d jobs); retry after %s", e.Capacity, e.RetryAfter)
}

// ErrDraining rejects submissions during graceful shutdown.
var ErrDraining = fmt.Errorf("jobq: draining; not accepting new jobs")

// job is one admitted, not-yet-terminal job.
type job struct {
	id  string
	req Request
	res Result // mutated under Queue.mu only

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{} // closed on terminal transition

	prio int
	seq  uint64 // admission order; FIFO tiebreak within a priority
	idx  int    // heap index; -1 once popped

	waiters int  // wait-mode clients that can still Release
	keep    bool // a fire-and-forget submission owns the job: never auto-cancel

	// The stage clock: monotonic timestamps at each lifecycle boundary
	// (submittedAt = Submit entry, queuedAt = admission, startedAt =
	// dequeue/solve start, solveEndAt = the runner's RunFunc returned).
	// Their differences are the job's StageBreakdown.
	submittedAt time.Time
	queuedAt    time.Time
	startedAt   time.Time
	solveEndAt  time.Time
	// dedupAttach records when each coalesced submission attached; their
	// waits (attach → terminal) feed the dedup stage histogram.
	dedupAttach []time.Time
}

// Queue is the service core: admission control, priority scheduling,
// in-flight dedup, cancellation, graceful drain and the result cache.
type Queue struct {
	cfg   Config
	run   RunFunc
	cache *resultCache
	obs   *obs.Observer
	trace *metrics.Tracer

	mu       sync.Mutex
	cond     *sync.Cond // runners wait here; drain waits here too
	pending  jobHeap    // admitted, not yet picked up
	jobs     map[string]*job
	seq      uint64
	running  int
	draining bool
	stopped  bool
	ema      float64 // EMA of solve seconds; 0 = no sample yet
	// stageSecs accumulates per-stage latency over terminal jobs
	// (Stats.StageSeconds); lazily allocated on the first finish.
	stageSecs map[string]float64

	submitted, completed, failed, cancelled, rejected, deduped uint64

	runnersWG sync.WaitGroup
}

// New builds the queue and starts its runners. Call Close (or Drain then
// Close) when done.
func New(cfg Config) *Queue {
	if cfg.Capacity < 1 {
		cfg.Capacity = 64
	}
	if cfg.Runners < 1 {
		cfg.Runners = 1
	}
	if cfg.CacheEntries < 1 {
		cfg.CacheEntries = 256
	}
	q := &Queue{
		cfg:   cfg,
		run:   cfg.Run,
		cache: newResultCache(cfg.CacheEntries),
		jobs:  make(map[string]*job),
		obs:   cfg.Obs,
		trace: cfg.Trace,
	}
	if q.run == nil {
		q.run = Solver(cfg.Sched, cfg.Mem)
	}
	q.cond = sync.NewCond(&q.mu)
	q.runnersWG.Add(cfg.Runners)
	for i := 0; i < cfg.Runners; i++ {
		go q.runner()
	}
	return q
}

// Ticket is a submitter's handle on a job: the channel to wait on, the
// result once terminal, and Release for wait-mode clients that
// disconnect. Cache hits return a pre-resolved ticket.
type Ticket struct {
	q      *Queue
	job    *job // nil for cache hits
	res    Result
	cached bool

	releaseOnce sync.Once
}

// ID returns the job's content address.
func (t *Ticket) ID() string {
	if t.job != nil {
		return t.job.id
	}
	return t.res.ID
}

// Cached reports whether the ticket was answered from the result cache
// without queueing a job.
func (t *Ticket) Cached() bool { return t.cached }

// Done returns a channel closed when the job is terminal (already closed
// for cache hits).
func (t *Ticket) Done() <-chan struct{} {
	if t.job != nil {
		return t.job.done
	}
	return closedChan
}

// Result returns the job's record. Before Done it is a snapshot of the
// live state; after Done it is the terminal result.
func (t *Ticket) Result() Result {
	if t.job == nil {
		return t.res
	}
	t.q.mu.Lock()
	defer t.q.mu.Unlock()
	return t.job.res
}

// Release detaches a wait-mode submitter — the client-disconnect path.
// When the last waiter of a job with no fire-and-forget owner releases,
// the job's context is cancelled: a queued job dies in the queue, a
// running solve stops at its next iteration boundary. Safe to call more
// than once and after Done; a no-op for cache hits and fire-and-forget
// tickets.
func (t *Ticket) Release() {
	t.releaseOnce.Do(func() {
		if t.job == nil {
			return
		}
		q := t.q
		q.mu.Lock()
		j := t.job
		if j.waiters > 0 {
			j.waiters--
		}
		abandon := j.waiters == 0 && !j.keep && !j.res.State.Terminal()
		q.mu.Unlock()
		if abandon {
			j.cancel()
		}
	})
}

var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// Submit admits one normalized request (Submit normalizes defensively).
// The fast path — a cached success for the same content address, unless
// req.Force — returns a resolved ticket without touching the queue.
// Identical in-flight jobs coalesce: the new submitter attaches to the
// existing job. Rejections: *RequestError (malformed), *FullError (at
// capacity), ErrDraining (shutting down).
func (q *Queue) Submit(req Request) (*Ticket, error) {
	ingressStart := time.Now()
	req, err := req.Normalize()
	if err != nil {
		return nil, err
	}
	if req.TraceID == "" {
		// The HTTP front end mints at ingress; direct API users get an
		// ID here so every job is traceable.
		req.TraceID = obs.NewTraceID().String()
	}
	id := req.ID()
	if !req.Force {
		if res, ok := q.cache.get(id); ok {
			res.Cached = true
			res.TraceID = req.TraceID
			ingress := time.Since(ingressStart).Seconds()
			stages := StageBreakdown{IngressSeconds: ingress, TotalSeconds: ingress}
			res.Stages = &stages
			q.trace.Emit(metrics.Event{Ev: "stage", Stage: obs.StageIngress,
				Nanos: int64(time.Since(ingressStart)), Trace: req.TraceID, Job: id})
			q.obs.JobFinished(obs.JobRecord{
				TraceID: req.TraceID, JobID: id, Tenant: req.Tenant,
				Class: req.Class, Impl: req.Impl,
				State: string(StateDone), Cached: true,
				SubmitUnixNano: ingressStart.UnixNano(), Stages: stages,
				Rnm2: res.Rnm2,
			})
			return &Ticket{q: q, res: res, cached: true}, nil
		}
	}

	q.mu.Lock()
	defer q.mu.Unlock()
	if q.draining || q.stopped {
		return nil, ErrDraining
	}
	q.submitted++
	if j, ok := q.jobs[id]; ok {
		// Same problem already admitted: coalesce instead of re-solving.
		q.deduped++
		if req.Wait {
			j.waiters++
		} else {
			j.keep = true
		}
		j.dedupAttach = append(j.dedupAttach, time.Now())
		q.obs.JobDeduped(req.TraceID, id, req.Tenant)
		return &Ticket{q: q, job: j}, nil
	}
	if len(q.jobs) >= q.cfg.Capacity {
		q.rejected++
		retry := q.retryAfterLocked()
		q.obs.JobRejected(req.TraceID, req.Tenant, retry)
		return nil, &FullError{Capacity: q.cfg.Capacity, RetryAfter: retry}
	}
	ctx, cancel := context.WithCancel(context.Background())
	now := time.Now()
	j := &job{
		id:          id,
		req:         req,
		ctx:         ctx,
		cancel:      cancel,
		done:        make(chan struct{}),
		prio:        q.cfg.Priorities[req.Tenant],
		seq:         q.seq,
		submittedAt: ingressStart,
		queuedAt:    now,
		res:         Result{ID: id, TraceID: req.TraceID, Request: req, State: StateQueued},
	}
	q.seq++
	if req.Wait {
		j.waiters = 1
	} else {
		j.keep = true
	}
	q.jobs[id] = j
	heap.Push(&q.pending, j)
	q.cond.Signal()
	q.trace.Emit(metrics.Event{Ev: "stage", Stage: obs.StageIngress,
		Nanos: int64(now.Sub(ingressStart)), Trace: req.TraceID, Job: id})
	q.obs.JobAdmitted(req.TraceID, id, req.Tenant, len(q.pending), q.running)
	return &Ticket{q: q, job: j}, nil
}

// retryAfterLocked estimates when the backlog will have drained one
// slot: the solve-time EMA times the jobs ahead, split across runners.
// Floor 1s — the client should never busy-spin.
func (q *Queue) retryAfterLocked() time.Duration {
	ema := q.ema
	if ema == 0 {
		ema = 0.1
	}
	est := ema * float64(len(q.jobs)) / float64(q.cfg.Runners)
	d := time.Duration(est * float64(time.Second))
	if d < time.Second {
		d = time.Second
	}
	return d.Round(time.Second)
}

// runner is one worker loop: pop the highest-priority job, solve it,
// publish the terminal result.
func (q *Queue) runner() {
	defer q.runnersWG.Done()
	for {
		q.mu.Lock()
		for len(q.pending) == 0 && !q.stopped {
			q.cond.Wait()
		}
		if q.stopped && len(q.pending) == 0 {
			q.mu.Unlock()
			return
		}
		j := heap.Pop(&q.pending).(*job)
		if j.ctx.Err() != nil {
			// Abandoned while queued: terminal without running.
			rec := q.finishLocked(j, Result{}, j.ctx.Err())
			q.mu.Unlock()
			q.publishFinish(j, rec)
			continue
		}
		dequeued := time.Now()
		j.res.State = StateRunning
		j.res.QueueSeconds = dequeued.Sub(j.queuedAt).Seconds()
		q.running++
		q.mu.Unlock()
		q.trace.Emit(metrics.Event{Ev: "stage", Stage: obs.StageQueue,
			Nanos: int64(dequeued.Sub(j.queuedAt)), Trace: j.req.TraceID, Job: j.id})
		// startedAt is taken after the queue-stage emit: the tracer stamps
		// span ends at emission, so this ordering is what guarantees the
		// queue and solve spans of one job never overlap in the timeline.
		j.startedAt = time.Now()

		res, err := q.run(j.ctx, j.req)
		j.solveEndAt = time.Now()
		q.trace.Emit(metrics.Event{Ev: "stage", Stage: obs.StageSolve,
			Nanos: int64(j.solveEndAt.Sub(j.startedAt)), Trace: j.req.TraceID, Job: j.id})

		q.mu.Lock()
		q.running--
		rec := q.finishLocked(j, res, err)
		q.mu.Unlock()
		q.publishFinish(j, rec)
	}
}

// finishLocked publishes a job's terminal state: result fields, stage
// breakdown, cache entry, counters, EMA, waiter wake-up. Caller holds
// q.mu; the returned flight record is handed to publishFinish outside
// the lock (the observer may log or write a dump file).
func (q *Queue) finishLocked(j *job, res Result, err error) obs.JobRecord {
	now := time.Now()
	queueSecs := j.res.QueueSeconds
	if j.startedAt.IsZero() {
		// Died in the queue: its whole life was queue wait.
		queueSecs = now.Sub(j.queuedAt).Seconds()
	}
	if !j.startedAt.IsZero() {
		res.SolveSeconds = time.Since(j.startedAt).Seconds()
	}
	res.ID = j.id
	res.TraceID = j.req.TraceID
	res.Request = j.req
	res.QueueSeconds = queueSecs
	nonFinite := false
	switch {
	case err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		res.State = StateCancelled
		res.Error = "cancelled: " + err.Error()
		q.cancelled++
	case err != nil:
		res.State = StateFailed
		res.Error = err.Error()
		q.failed++
	case math.IsNaN(res.Rnm2) || math.IsInf(res.Rnm2, 0) || math.IsNaN(res.Rnmu) || math.IsInf(res.Rnmu, 0):
		// A poisoned solve must surface as a failed job, not a cached
		// "success" or a dead daemon.
		res.State = StateFailed
		res.Error = fmt.Sprintf("non-finite residual norm (rnm2=%v, rnmu=%v)", res.Rnm2, res.Rnmu)
		res.Rnm2, res.Rnmu = 0, 0 // NaN/Inf are not representable in JSON
		nonFinite = true
		q.failed++
	default:
		res.State = StateDone
		q.completed++
		if res.SolveSeconds > 0 {
			if q.ema == 0 {
				q.ema = res.SolveSeconds
			} else {
				q.ema = 0.8*q.ema + 0.2*res.SolveSeconds
			}
		}
	}
	stages := StageBreakdown{
		IngressSeconds: j.queuedAt.Sub(j.submittedAt).Seconds(),
		QueueSeconds:   queueSecs,
		SolveSeconds:   res.SolveSeconds,
		TotalSeconds:   now.Sub(j.submittedAt).Seconds(),
		DedupWaiters:   len(j.dedupAttach),
	}
	if !j.solveEndAt.IsZero() {
		stages.RespondSeconds = now.Sub(j.solveEndAt).Seconds()
	}
	res.Stages = &stages
	if q.stageSecs == nil {
		q.stageSecs = map[string]float64{}
	}
	q.stageSecs[obs.StageIngress] += stages.IngressSeconds
	q.stageSecs[obs.StageQueue] += stages.QueueSeconds
	q.stageSecs[obs.StageSolve] += stages.SolveSeconds
	q.stageSecs[obs.StageRespond] += stages.RespondSeconds
	j.res = res
	j.cancel() // release the context's resources in every path
	delete(q.jobs, j.id)
	q.cache.put(j.id, res)
	close(j.done)
	q.cond.Broadcast() // wake Drain waiters (and idle runners, harmlessly)

	rec := obs.JobRecord{
		TraceID: j.req.TraceID, JobID: j.id, Tenant: j.req.Tenant,
		Class: j.req.Class, Impl: j.req.Impl,
		State: string(res.State), Error: res.Error, NonFinite: nonFinite,
		SubmitUnixNano: j.submittedAt.UnixNano(),
		Stages:         stages,
		QueueDepth:     len(q.pending),
		Running:        q.running,
		Rnm2:           res.Rnm2,
	}
	for _, at := range j.dedupAttach {
		rec.DedupWaitSeconds = append(rec.DedupWaitSeconds, now.Sub(at).Seconds())
	}
	return rec
}

// publishFinish runs the post-terminal observability work outside q.mu:
// dedup-wait stage events and the observer's histogram/ring/log/dump
// hooks (a dump writes a file — never under the queue lock).
func (q *Queue) publishFinish(j *job, rec obs.JobRecord) {
	if q.trace != nil {
		for _, wait := range rec.DedupWaitSeconds {
			q.trace.Emit(metrics.Event{Ev: "stage", Stage: obs.StageDedup,
				Nanos: int64(wait * float64(time.Second)), Trace: rec.TraceID, Job: rec.JobID})
		}
		q.trace.Emit(metrics.Event{Ev: "stage", Stage: obs.StageRespond,
			Nanos: int64(rec.RespondSeconds * float64(time.Second)),
			Trace: rec.TraceID, Job: rec.JobID})
	}
	q.obs.JobFinished(rec)
}

// Lookup returns the current record of a job by content address: the
// live state for in-flight jobs, the cached terminal result otherwise.
func (q *Queue) Lookup(id string) (Result, bool) {
	q.mu.Lock()
	if j, ok := q.jobs[id]; ok {
		res := j.res
		q.mu.Unlock()
		return res, true
	}
	q.mu.Unlock()
	return q.cache.lookup(id)
}

// Drain begins graceful shutdown: new submissions are rejected with
// ErrDraining while admitted jobs run to completion. It returns nil when
// the queue is empty, or the context's error after cancelling whatever
// was still in flight at the deadline.
func (q *Queue) Drain(ctx context.Context) error {
	q.mu.Lock()
	first := !q.draining
	q.draining = true
	q.mu.Unlock()
	if first {
		// The drain snapshot: what the queue looked like when intake
		// stopped — the flight recorder's "end of tape" marker.
		q.obs.DrainStarted()
	}

	done := make(chan struct{})
	go func() {
		q.mu.Lock()
		for len(q.jobs) > 0 {
			q.cond.Wait()
		}
		q.mu.Unlock()
		close(done)
	}()

	select {
	case <-done:
		return nil
	case <-ctx.Done():
		q.mu.Lock()
		for _, j := range q.jobs {
			j.cancel()
		}
		q.cond.Broadcast()
		q.mu.Unlock()
		<-done // runners notice the cancelled contexts within an iteration
		return ctx.Err()
	}
}

// Close stops the runners after cancelling everything still in flight
// and waits for them to exit. For a graceful shutdown call Drain first;
// Close alone is the abort path.
func (q *Queue) Close() {
	q.mu.Lock()
	q.draining = true
	q.stopped = true
	for _, j := range q.jobs {
		j.cancel()
	}
	q.cond.Broadcast()
	q.mu.Unlock()
	q.runnersWG.Wait()
}

// Stats is a point-in-time snapshot of the queue's counters and gauges.
type Stats struct {
	Submitted, Completed, Failed, Cancelled, Rejected, Deduped uint64
	CacheHits, CacheMisses                                     uint64
	Queued, Running, CacheEntries                              int
	EMASolveSeconds                                            float64
	Draining                                                   bool
	// StageSeconds is the cumulative per-stage latency over every
	// terminal job, keyed by obs stage name — the coarse companion of
	// the mgd_stage_seconds histograms, cheap enough for /v1/stats.
	StageSeconds map[string]float64 `json:",omitempty"`
}

// Stats returns the snapshot.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	s := Stats{
		Submitted:       q.submitted,
		Completed:       q.completed,
		Failed:          q.failed,
		Cancelled:       q.cancelled,
		Rejected:        q.rejected,
		Deduped:         q.deduped,
		Queued:          len(q.pending),
		Running:         q.running,
		EMASolveSeconds: q.ema,
		Draining:        q.draining,
	}
	if q.stageSecs != nil {
		s.StageSeconds = make(map[string]float64, len(q.stageSecs))
		for stage, secs := range q.stageSecs {
			s.StageSeconds[stage] = secs
		}
	}
	q.mu.Unlock()
	s.CacheHits, s.CacheMisses = q.cache.counters()
	s.CacheEntries = q.cache.len()
	return s
}

// WritePrometheus renders the queue's counters in Prometheus text
// exposition format under the mgd_ namespace — the service-level rows of
// the daemon's /metrics endpoint.
func (q *Queue) WritePrometheus(w io.Writer) {
	s := q.Stats()
	p := metrics.NewPromWriter(w)
	counter := func(name, help string, v uint64) { p.Counter(name, help, float64(v)) }
	gauge := p.Gauge
	counter("mgd_jobs_submitted_total", "Solve submissions admitted or coalesced.", s.Submitted)
	counter("mgd_jobs_completed_total", "Jobs finished successfully.", s.Completed)
	counter("mgd_jobs_failed_total", "Jobs that errored or produced non-finite norms.", s.Failed)
	counter("mgd_jobs_cancelled_total", "Jobs abandoned by every waiter or cut off by shutdown.", s.Cancelled)
	counter("mgd_jobs_rejected_total", "Submissions rejected by admission control (queue full).", s.Rejected)
	counter("mgd_jobs_deduped_total", "Submissions coalesced onto an identical in-flight job.", s.Deduped)
	counter("mgd_cache_hits_total", "Submissions answered from the result cache.", s.CacheHits)
	counter("mgd_cache_misses_total", "Cache lookups that had to queue a solve.", s.CacheMisses)
	gauge("mgd_queue_depth", "Jobs admitted and waiting for a runner.", float64(s.Queued))
	gauge("mgd_jobs_running", "Jobs currently executing.", float64(s.Running))
	gauge("mgd_cache_entries", "Results currently cached.", float64(s.CacheEntries))
	gauge("mgd_solve_seconds_ema", "Exponential moving average of solve wall time.", s.EMASolveSeconds)
	draining := 0.0
	if s.Draining {
		draining = 1
	}
	gauge("mgd_draining", "1 while the queue is refusing new work for shutdown.", draining)
}

// jobHeap orders pending jobs by priority (higher first), then admission
// order (earlier first) — strict priority with FIFO fairness inside each
// class.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].prio != h[j].prio {
		return h[i].prio > h[j].prio
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *jobHeap) Push(x any) {
	j := x.(*job)
	j.idx = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.idx = -1
	*h = old[:n-1]
	return j
}
