package jobq

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/cport"
	"repro/internal/f77"
	"repro/internal/health"
	"repro/internal/mempool"
	"repro/internal/metrics"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/sched"
	wl "repro/internal/withloop"
)

// SolverConfig configures the real RunFunc. Every field is optional:
// nil pools select the process-global runtimes, nil observability
// sinks disable themselves for free.
type SolverConfig struct {
	// Sched is the worker pool jobs multiplex over; nil = sched.Shared().
	Sched *sched.Pool
	// Mem is the buffer arena; nil = mempool.Shared().
	Mem *mempool.Pool
	// Metrics aggregates per-kernel timings across the whole job stream
	// (one collector shared by all jobs; its shards are mutex-protected).
	Metrics *metrics.Collector
	// Trace receives the solver's V-cycle events. Each job emits through
	// a ForJob view tagged with its trace and job IDs, so the shared
	// stream regroups into per-request span trees (cmd/mgtrace).
	Trace *metrics.Tracer
	// Obs receives each sac solve's health verdict into the flight
	// recorder's verdict history.
	Obs *obs.Observer
}

// Solver returns the real RunFunc: each job solves over the shared
// worker pool and draws its grids from a private scope of the shared
// buffer arena. Nil arguments select the process-global runtimes.
func Solver(pool *sched.Pool, mem *mempool.Pool) RunFunc {
	return NewSolver(SolverConfig{Sched: pool, Mem: mem})
}

// NewSolver builds the RunFunc from the config.
func NewSolver(cfg SolverConfig) RunFunc {
	if cfg.Sched == nil {
		cfg.Sched = sched.Shared()
	}
	if cfg.Mem == nil {
		cfg.Mem = mempool.Shared()
	}
	return func(ctx context.Context, req Request) (Result, error) {
		return solve(ctx, req, cfg)
	}
}

// solve executes one job. Determinism contract: for every (class, seed,
// impl, iterations, variant) the result is bit-identical to a one-shot
// solve of the same request — shared pools, scopes and observation hooks
// never change the arithmetic (asserted by TestServiceSolveMatchesDirect
// and the daemon integration test).
func solve(ctx context.Context, req Request, cfg SolverConfig) (Result, error) {
	pool, col := cfg.Sched, cfg.Metrics
	class := req.class()
	res := Result{ID: req.ID(), TraceID: req.TraceID, Request: req}
	cancelled := func() bool { return ctx.Err() != nil }
	start := time.Now()

	var (
		b      nas.Benchmark
		finish func() // sac: collect the scope and health, return the grids
	)
	switch req.Impl {
	case "sac":
		env := wl.Service(pool, cfg.Mem)
		env.Variant = req.Variant
		env.AttachMetrics(col)
		// The per-job tracer view: every kernel span, iteration marker
		// and solve summary this job emits carries its trace/job tags
		// (nil propagates — a disabled tracer stays one nil check).
		env.Trace = cfg.Trace.ForJob(req.TraceID, req.ID())
		mon := health.New(health.Config{})
		env.Health = mon
		cb := core.NewBenchmark(class, env)
		cb.Seed = req.Seed
		cb.Solver.Cancel = cancelled
		b = cb
		finish = func() {
			scope := env.Pool.Stats()
			res.MemAllocs, res.MemReuses = scope.Allocs, scope.Reuses
			res.Health = mon.Report(metrics.Snapshot{}).Verdict
			cfg.Obs.HealthVerdict(res.Health)
			// Return the job's grids to the shared arena before the scope
			// is discarded — the next job reuses the buffers instead of
			// the heap.
			env.Release(cb.U())
			env.Release(cb.V())
		}
	// A nil or one-worker pool runs both ports serially.
	case "f77":
		s := f77.NewParallel(class, pool, f77.FullPar)
		s.Seed, s.Cancel = req.Seed, cancelled
		b = s
	case "c":
		s := cport.NewParallel(class, pool)
		s.Seed, s.Cancel = req.Seed, cancelled
		b = s
	}
	b.Reset()
	rnm2, rnmu := b.Solve()
	if finish != nil {
		finish()
	}

	if err := ctx.Err(); err != nil {
		return res, err
	}
	res.Rnm2, res.Rnmu = rnm2, rnmu
	res.SolveSeconds = time.Since(start).Seconds()
	if req.official() {
		if verified, ok := class.Verify(rnm2); ok {
			res.Verified = &verified
		}
	}
	return res, nil
}
