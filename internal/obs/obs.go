// Package obs is the request-scoped observability layer of the solver
// service: 128-bit trace IDs minted at HTTP ingress and threaded through
// the job queue into the kernel tracer, a stage-latency decomposition
// (ingress → queue → dedup → solve → respond) exported as Prometheus
// histograms, structured logging via log/slog with every line carrying
// trace_id/job_id/tenant/stage, and an always-on flight recorder — a
// fixed-size lock-free ring of recent per-job stage records that dumps
// itself to JSON on anomaly triggers (non-finite norms, queue-full
// bursts, drain, SIGQUIT) and on demand.
//
// Everything is nil-safe and free when disabled: a nil *Observer makes
// every hook a single nil check with no allocations, the same contract
// internal/metrics and internal/health keep for the solve hot path
// (asserted by TestObserverDisabledZeroAlloc).
package obs

import (
	"log/slog"
	"time"
)

// Config configures an Observer and its flight recorder. Zero values
// select working defaults: a discard logger, no dump directory (dumps go
// to HTTP only).
type Config struct {
	// Log receives the service's structured log lines; nil discards.
	Log *slog.Logger
	// FlightDir, when non-empty, is where anomaly-triggered dumps are
	// written as JSON files; empty disables file dumps (the
	// /debug/flightrecorder endpoint still serves snapshots).
	FlightDir string
	// DumpMinInterval rate-limits anomaly file dumps (default 10s) so a
	// burst of poisoned jobs produces one dump, not hundreds.
	DumpMinInterval time.Duration
	// BurstWindow/BurstCount define the queue-full-burst trigger: at
	// least BurstCount rejections inside one BurstWindow dumps the
	// recorder (defaults 2s / 16).
	BurstWindow time.Duration
	BurstCount  int
	// OnDump, when non-nil, is called with the trigger reason and file
	// path after each anomaly dump is complete on disk. Jobs report
	// done before their observer hooks run, so this — not the job's
	// completion — is the signal that its postmortem can be read.
	OnDump func(reason, path string)
}

// Observer ties the layer together for the job queue and the HTTP front
// end: a logger, the stage histograms and the flight recorder. A nil
// Observer disables everything at the cost of one nil check per hook.
type Observer struct {
	log  *slog.Logger
	hist *StageHist
	rec  *FlightRecorder
}

// withDefaults fills the zero fields of c with the documented defaults.
func (c Config) withDefaults() Config {
	if c.Log == nil {
		c.Log = discard
	}
	if c.DumpMinInterval <= 0 {
		c.DumpMinInterval = 10 * time.Second
	}
	if c.BurstWindow <= 0 {
		c.BurstWindow = 2 * time.Second
	}
	if c.BurstCount < 1 {
		c.BurstCount = 16
	}
	return c
}

// New builds an Observer from the config.
func New(cfg Config) *Observer {
	cfg = cfg.withDefaults()
	return &Observer{
		log:  cfg.Log,
		hist: newStageHist(),
		rec:  newFlightRecorder(cfg),
	}
}

// Log returns the observer's logger; the discard logger when the observer is nil,
// so callers can log unconditionally.
func (o *Observer) Log() *slog.Logger {
	if o == nil {
		return discard
	}
	return o.log
}

// Hist returns the stage histograms (nil on a nil observer).
func (o *Observer) Hist() *StageHist {
	if o == nil {
		return nil
	}
	return o.hist
}

// Recorder returns the flight recorder (nil on a nil observer).
func (o *Observer) Recorder() *FlightRecorder {
	if o == nil {
		return nil
	}
	return o.rec
}

// JobAdmitted records one admission: a log line and a queue-depth sample.
func (o *Observer) JobAdmitted(traceID, jobID, tenant string, queued, running int) {
	if o == nil {
		return
	}
	o.rec.noteDepth(queued, running)
	o.log.Info("job admitted",
		"trace_id", traceID, "job_id", jobID, "tenant", tenant,
		"stage", StageQueue, "queue_depth", queued)
}

// JobDeduped records one submission coalescing onto an in-flight job.
func (o *Observer) JobDeduped(traceID, jobID, tenant string) {
	if o == nil {
		return
	}
	o.log.Info("job deduplicated onto in-flight solve",
		"trace_id", traceID, "job_id", jobID, "tenant", tenant,
		"stage", StageDedup)
}

// JobRejected records one admission-control rejection and arms the
// queue-full-burst trigger: a burst of rejections dumps the recorder
// once (the postmortem of "why did we shed load?").
func (o *Observer) JobRejected(traceID, tenant string, retryAfter time.Duration) {
	if o == nil {
		return
	}
	o.log.Warn("job rejected: queue full",
		"trace_id", traceID, "tenant", tenant,
		"stage", StageIngress, "retry_after", retryAfter.String())
	if path, ok := o.rec.noteRejection(); ok {
		o.log.Warn("flight recorder dumped", "reason", ReasonQueueFullBurst, "path", path)
	}
}

// JobFinished records one terminal job: the stage histograms, the flight
// ring, a log line, and — for jobs failed on a non-finite norm — an
// anomaly dump naming the job.
func (o *Observer) JobFinished(rec JobRecord) {
	if o == nil {
		return
	}
	o.hist.observeJob(rec)
	o.rec.add(rec)
	o.rec.noteDepth(rec.QueueDepth, rec.Running)
	attrs := []any{
		"trace_id", rec.TraceID, "job_id", rec.JobID, "tenant", rec.Tenant,
		"stage", StageRespond, "state", rec.State,
		"queue_s", rec.QueueSeconds, "solve_s", rec.SolveSeconds,
		"total_s", rec.TotalSeconds,
	}
	switch {
	case rec.NonFinite:
		o.log.Error("job failed on non-finite norm", append(attrs, "error", rec.Error)...)
		if path, ok := o.rec.Trigger(ReasonNonFinite); ok {
			o.log.Error("flight recorder dumped", "reason", ReasonNonFinite,
				"trace_id", rec.TraceID, "job_id", rec.JobID, "path", path)
		}
	case rec.Error != "":
		o.log.Warn("job finished", append(attrs, "error", rec.Error)...)
	default:
		o.log.Info("job finished", attrs...)
	}
}

// DrainStarted records the start of graceful shutdown and snapshots the
// recorder — the state of the queue at the moment intake stopped.
func (o *Observer) DrainStarted() {
	if o == nil {
		return
	}
	o.log.Info("drain started", "stage", StageRespond)
	if path, ok := o.rec.Trigger(ReasonDrain); ok {
		o.log.Info("flight recorder dumped", "reason", ReasonDrain, "path", path)
	}
}

// HealthVerdict records a health-monitor verdict into the recorder's
// recent-verdict history.
func (o *Observer) HealthVerdict(verdict string) {
	if o == nil {
		return
	}
	o.rec.noteHealth(verdict)
}
