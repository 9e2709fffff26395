// The stage model of one service request, and its Prometheus
// exposition. A job entering POST /v1/solve passes through a fixed
// pipeline of stages, each bounded by a monotonic timestamp the queue
// records:
//
//	ingress   submit entry → admission decision (parse/dedup/reject)
//	queue     admission → a runner dequeues the job
//	dedup     a coalesced submitter's attach → the shared job's terminal
//	          transition (only submissions answered by another job's
//	          execution observe this stage)
//	solve     runner start → solver return
//	respond   solver return → terminal result published to waiters
//
// The decomposition is what lets a slow job be attributed: a large
// queue stage is backlog, a large dedup stage is a popular problem
// already in flight, a large solve stage is the kernel itself.
package obs

import (
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Stage names, in pipeline order.
const (
	StageIngress = "ingress"
	StageQueue   = "queue"
	StageDedup   = "dedup"
	StageSolve   = "solve"
	StageRespond = "respond"
)

// Stages is the per-stage latency decomposition of one job, in seconds:
// the monotonic-timestamp differences the queue records at
// submit/admit/dequeue/solve-start/solve-end/respond. The job's result
// (/v1/results/{id}) echoes it, and its JobRecord embeds it.
type Stages struct {
	// IngressSeconds is submit entry → admission decision.
	IngressSeconds float64 `json:"ingressSeconds"`
	// QueueSeconds is admission → a runner dequeued the job.
	QueueSeconds float64 `json:"queueSeconds"`
	// SolveSeconds is runner start → solver return.
	SolveSeconds float64 `json:"solveSeconds"`
	// RespondSeconds is solver return → terminal result published.
	RespondSeconds float64 `json:"respondSeconds"`
	// TotalSeconds is submit entry → terminal result published.
	TotalSeconds float64 `json:"totalSeconds"`
	// DedupWaiters counts submissions that coalesced onto this job
	// instead of running their own solve.
	DedupWaiters int `json:"dedupWaiters,omitempty"`
}

// JobRecord is the flight-record of one terminal job: identity, outcome
// and the full stage decomposition. It is what the flight recorder
// retains and what the stage histograms consume.
type JobRecord struct {
	// Seq is the recorder's admission counter, stamped by Add — it
	// orders records across ring wraparound.
	Seq uint64 `json:"seq"`
	// TraceID/JobID/Tenant join the record to logs, traces and the API.
	TraceID string `json:"traceId"`
	JobID   string `json:"jobId"`
	Tenant  string `json:"tenant,omitempty"`
	// Class/Impl identify the problem.
	Class string `json:"class,omitempty"`
	Impl  string `json:"impl,omitempty"`
	// State is the terminal state (done, failed, cancelled); Error the
	// failure reason; NonFinite marks the poisoned-norm failure mode
	// that triggers an anomaly dump.
	State     string `json:"state"`
	Error     string `json:"error,omitempty"`
	NonFinite bool   `json:"nonFinite,omitempty"`
	// SubmitUnixNano is the wall-clock submit time (the only wall stamp;
	// stage durations are monotonic differences).
	SubmitUnixNano int64 `json:"submitUnixNano"`
	Stages
	// DedupWaitSeconds holds each coalesced submitter's attach→terminal
	// wait (the time the shared execution saved it).
	DedupWaitSeconds []float64 `json:"dedupWaitSeconds,omitempty"`
	// QueueDepth/Running are the queue gauges at the terminal
	// transition — the congestion context of the record.
	QueueDepth int `json:"queueDepth"`
	Running    int `json:"running"`
	// Rnm2 is the final residual norm of a successful solve.
	Rnm2 float64 `json:"rnm2,omitempty"`
	// Cached marks records synthesized for cache hits (no solve ran).
	Cached bool `json:"cached,omitempty"`
}

// StageSeries is one (stage, terminal-status) series of the set, its
// histogram in nanoseconds.
type StageSeries struct {
	Stage  string       `json:"stage"`
	Status string       `json:"status"`
	Hist   metrics.Hist `json:"hist"`
}

// StageHist is the per-(stage, terminal-status) latency histogram set
// behind the daemon's mgd_stage_seconds metric. Safe for concurrent
// use; a nil *StageHist drops observations for free.
type StageHist struct {
	mu     sync.Mutex
	series map[[2]string]*metrics.Hist // keyed by (stage, status)
}

// newStageHist builds an empty histogram set.
func newStageHist() *StageHist {
	return &StageHist{series: make(map[[2]string]*metrics.Hist)}
}

// observe records one stage duration under the job's terminal status.
func (h *StageHist) observe(stage, status string, d time.Duration) {
	if h == nil {
		return
	}
	key := [2]string{stage, status}
	h.mu.Lock()
	s := h.series[key]
	if s == nil {
		s = new(metrics.Hist)
		h.series[key] = s
	}
	s.Observe(int64(d))
	h.mu.Unlock()
}

// observeJob records a terminal job's full stage decomposition: every
// stage the job passed through, labelled with its terminal state. The
// dedup stage is observed once per coalesced waiter (their wait is the
// time the shared execution saved them).
func (h *StageHist) observeJob(rec JobRecord) {
	if h == nil {
		return
	}
	h.observe(StageIngress, rec.State, seconds(rec.IngressSeconds))
	if !rec.Cached {
		h.observe(StageQueue, rec.State, seconds(rec.QueueSeconds))
		h.observe(StageSolve, rec.State, seconds(rec.SolveSeconds))
		h.observe(StageRespond, rec.State, seconds(rec.RespondSeconds))
	}
	for _, wait := range rec.DedupWaitSeconds {
		h.observe(StageDedup, rec.State, seconds(wait))
	}
}

// seconds converts a record's stage time back to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// snapshot copies the histogram set in (stage, status) order.
func (h *StageHist) snapshot() []StageSeries {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]StageSeries, 0, len(h.series))
	for key, s := range h.series {
		out = append(out, StageSeries{Stage: key[0], Status: key[1], Hist: *s})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		return out[i].Status < out[j].Status
	})
	return out
}

// WritePrometheus renders the histogram set as mgd_stage_seconds — the
// request-latency rows of the daemon's /metrics endpoint. Nil-safe
// (writes nothing).
func (h *StageHist) WritePrometheus(w io.Writer) {
	p := metrics.NewPromWriter(w)
	for _, s := range h.snapshot() {
		p.Histogram("mgd_stage_seconds", "Per-stage request latency by terminal status.",
			&s.Hist, 1e9, "stage", s.Stage, "status", s.Status)
	}
}
