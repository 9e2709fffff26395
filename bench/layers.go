package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/cport"
	"repro/internal/jobq"
	"repro/internal/mempool"
	"repro/internal/metrics"
	"repro/internal/mgmpi"
	"repro/internal/nas"
	"repro/internal/perfstat"
	"repro/internal/sched"
	wl "repro/internal/withloop"
)

func median(xs []float64) float64 { return perfstat.Median(xs) }

// best is the smallest of a set of timings: what the operation costs when
// no other tenant of the host gets in its way.
func best(secs []float64) float64 { return slices.Min(secs) }

// probes are the layer measurements no section's load produces: each
// calls one layer's public functions directly, at the workload's class.
type probes struct {
	class nas.Class
	reps  int // timed repetitions of each probe
	hits  int // timed in-process cache hits

	host             hostProbe
	cportS           float64
	zran3S, norm2u3S float64
	direct           map[string]float64 // core.direct.<call>_s
	directAgreement  float64
	parWorkers       int
	parS             float64
	jobqHitS         float64
	jobqColdS        float64
	rank1S, chanS    float64
}

func newProbes(class nas.Class, tiny bool) *probes {
	p := &probes{class: class, reps: 3, hits: 200}
	if class.N > nas.ClassW.N {
		p.reps = 1 // a class-A solve takes seconds
	}
	if tiny {
		p.reps, p.hits = 1, 20
	}
	return p
}

// timeMedian warms f once, then returns the median of reps timed calls.
func (p *probes) timeMedian(tr *tracer, name string, f func()) float64 {
	f()
	secs := make([]float64, p.reps)
	for i := range secs {
		id := tr.begin(0, name, "probe")
		start := time.Now()
		f()
		secs[i] = time.Since(start).Seconds()
		tr.end(id)
	}
	return median(secs)
}

// baselines times the C port's solve and, on its grids, the two nas
// routines every implementation shares.
func (p *probes) baselines(tr *tracer, t *tally) {
	var check bitsChecker
	c := cport.New(p.class)
	ref, err := warmSolver(p.class, "cport", c, &check)
	if err != nil {
		t.fail(err)
		return
	}
	secs := make([]float64, p.reps)
	for i := range secs {
		id := tr.begin(0, "cport.Solver solve", "probe")
		var rnm2 float64
		secs[i], rnm2 = ref.solve()
		tr.end(id)
		t.record(kindRef, secs[i], check.checkSolve("cport", p.class, rnm2))
	}
	p.cportS = median(secs)
	p.norm2u3S = p.timeMedian(tr, "nas.Norm2u3", func() { nas.Norm2u3(c.R(), p.class.N) })
	p.zran3S = p.timeMedian(tr, "nas.Zran3", func() { nas.Zran3(c.V(), p.class.N) })
}

// directCalls times the SAC solver's public operations from outside, on
// class-sized grids, with a collector attached: the rows the collector
// files for those calls must account for the time seen from outside,
// which cross-checks the core.* kernel metrics.
func (p *probes) directCalls(tr *tracer) {
	env := wl.Default()
	defer env.Close()
	col := metrics.NewCollector(1)
	env.AttachMetrics(col)
	s := core.New(env)
	s.Smoother = p.class.SmootherCoeffs()
	v := env.NewArray(p.class.ExtShape(p.class.LT()))
	nas.Zran3(v, p.class.N)
	u := env.NewArray(v.Shape())
	coarse := s.Fine2Coarse(v)

	release := func(a *array.Array) { env.Release(a) }
	calls := []struct {
		name string
		f    func()
	}{
		{"border", func() { s.SetupPeriodicBorder(v) }},
		{"fine2coarse", func() { release(s.Fine2Coarse(v)) }},
		{"coarse2fine", func() { release(s.Coarse2Fine(coarse)) }},
		{"residnorm", func() { s.ResidNorm(v, u, p.class.N) }},
		{"vcycle", func() { release(s.VCycle(v)) }},
	}
	p.direct = map[string]float64{}
	var outside float64
	for _, c := range calls {
		c.f() // warm: fault the pool's buffers in
	}
	col.Reset()
	for _, c := range calls {
		secs := make([]float64, p.reps)
		for i := range secs {
			id := tr.begin(0, "core.Solver "+c.name, "probe")
			start := time.Now()
			c.f()
			secs[i] = time.Since(start).Seconds()
			tr.end(id)
			outside += secs[i]
		}
		p.direct[c.name] = median(secs)
	}
	var inside uint64
	for _, row := range col.Snapshot().Kernels {
		inside += row.Nanos
	}
	p.directAgreement = float64(inside) / 1e9 / outside
}

// parallelSolve runs the SAC solve on min(nproc, 4) workers.
func (p *probes) parallelSolve(tr *tracer, t *tally) {
	p.parWorkers = min(runtime.NumCPU(), 4)
	env := wl.Parallel(p.parWorkers)
	defer env.Close()
	b := core.NewBenchmark(p.class, env)
	b.Reset()
	var check bitsChecker
	rnm2, _ := b.Solve() // warm-up
	if err := check.checkSolve("sac-par", p.class, rnm2); err != nil {
		t.fail(err)
		return
	}
	secs := make([]float64, p.reps)
	for i := range secs {
		id := tr.begin(0, "core.Benchmark.Solve parallel", "probe")
		start := time.Now()
		rnm2, _ := b.Solve()
		secs[i] = time.Since(start).Seconds()
		tr.end(id)
		t.record(kindRef, secs[i], check.checkSolve("sac-par", p.class, rnm2))
	}
	p.parS = median(secs)
}

// queue submits to an in-process jobq.Queue configured like the daemon's
// (one worker, one runner): the service core without HTTP.
func (p *probes) queue(tr *tracer, t *tally) {
	q := jobq.New(jobq.Config{Runners: 1, Sched: sched.NewPersistent(1), Mem: mempool.New(true)})
	defer q.Close()
	var check bitsChecker
	submit := func(name string, wantCached bool) (float64, error) {
		id := tr.begin(0, name, "probe")
		defer tr.end(id)
		start := time.Now()
		tk, err := q.Submit(jobq.Request{Class: string(p.class.Name)})
		if err != nil {
			return 0, err
		}
		<-tk.Done()
		secs := time.Since(start).Seconds()
		res := tk.Result()
		switch {
		case res.State != jobq.StateDone:
			return secs, fmt.Errorf("job ended %s: %s", res.State, res.Error)
		case tk.Cached() != wantCached:
			return secs, fmt.Errorf("cached=%v, want %v", tk.Cached(), wantCached)
		}
		return secs, check.checkSolve("jobq", p.class, res.Rnm2)
	}
	secs, err := submit("jobq.Submit cold", false)
	t.record(kindRef, secs, err)
	p.jobqColdS = secs
	hits := make([]float64, 0, p.hits)
	for i := 0; i < p.hits; i++ {
		secs, err := submit("jobq.Submit hit", true)
		t.record(kindRef, secs, err)
		if err == nil {
			hits = append(hits, secs)
		}
	}
	p.jobqHitS = median(hits)
}

// worldSolve times mgmpi's solve over mpi.NewWorld's channels on the
// given number of ranks: one untimed solve to warm the heap, then the
// median of reps. Every Run allocates its grids anew, so the previous
// run's are collected first: the timed run then finds their pages mapped
// and pays neither the faults nor a collection half-way. On one rank it
// is the serial baseline of mgmpi.speedup_2; on distRanks, mgmpi's
// kernels without the wire.
func (p *probes) worldSolve(tr *tracer, t *tally, ranks int, wantBits uint64) float64 {
	s := mgmpi.New(p.class, ranks)
	s.Run()
	secs := make([]float64, p.reps)
	for i := range secs {
		runtime.GC()
		id := tr.begin(0, fmt.Sprintf("mgmpi.Solver.Run channels %d", ranks), "probe")
		start := time.Now()
		rnm2, _ := s.Run()
		secs[i] = time.Since(start).Seconds()
		tr.end(id)
		var err error
		if math.Float64bits(rnm2) != wantBits {
			err = fmt.Errorf("%d-rank channel-world rnm2 differs from the expected 1-rank solve's", ranks)
		}
		t.record(kindRef, secs[i], err)
	}
	return median(secs)
}

// emitLayers writes every per-layer metric from what the three sections'
// traced passes observed and what the probes measured.
func emitLayers(rep *report, p *probes, solve *solveSection, svc *serviceSection, dist *distSection,
	solveT, svcT, distT *tally, overhead float64) {
	h := p.host
	rep.set("host.triad_gbs", h.triadGBs)
	rep.set("host.flops_gflops", h.flopsGF)
	rep.set("host.spin_s", h.spinS)
	rep.set("host.llc_mb", h.llcMB)
	rep.set("host.triad_array_mb", h.arrayMB)

	rep.set("f77.solve_s", median(solveT.samples[kindAlt]))
	rep.set("cport.solve_s", p.cportS)
	rep.set("nas.zran3_s", p.zran3S)
	rep.set("nas.norm2u3_s", p.norm2u3S)

	solve.rows.emit(rep, h)
	for name, secs := range p.direct {
		rep.set("core.direct."+name+"_s", secs)
	}
	rep.set("core.direct.agreement", p.directAgreement)
	sacS := median(solveT.samples[kindOp])
	rep.set("core.solve_s", sacS)

	pool := solve.coldPool
	rep.set("mempool.allocs", float64(pool.Allocs))
	rep.set("mempool.reuses", float64(pool.Reuses))
	rep.set("mempool.reuse_ratio", float64(pool.Reuses)/float64(pool.Allocs+pool.Reuses))
	rep.set("mempool.alloc_bytes", float64(pool.BytesAllocated))

	n := float64(solve.rows.solves)
	// System time is reported as a share: a warm solve can spend less of
	// it than getrusage resolves, and a time that reads 0 measures nothing.
	rep.set("proc.cpu_s", (solve.usage.user+solve.usage.sys)/n)
	rep.set("proc.sys_share", solve.usage.sys/(solve.usage.user+solve.usage.sys))
	rep.set("proc.minor_faults", float64(solve.usage.minflt)/n)

	rep.set("sched.par.workers", float64(p.parWorkers))
	rep.set("sched.par.solve_s", p.parS)
	rep.set("sched.par.speedup", sacS/p.parS)

	o := &svc.obs
	hitS := median(svcT.samples[kindAlt])
	rep.set("jobq.hit_submit_s", p.jobqHitS)
	rep.set("jobq.cold_total_s", p.jobqColdS)
	rep.set("jobq.stage.ingress_s", median(o.ingress))
	rep.set("jobq.stage.queue_s", median(o.queue))
	rep.set("jobq.stage.solve_s", median(o.solve))
	rep.set("jobq.stage.respond_s", median(o.respond))
	rep.set("jobq.stage.sum_over_total", o.stageSum/o.stageTotal)
	rep.set("jobq.cache_hit_ratio", float64(o.stats.CacheHits)/float64(o.stats.CacheHits+o.stats.CacheMisses))
	rep.set("jobq.dedup_waiters", float64(o.stats.Deduped))
	rep.set("jobq.rejected", float64(o.stats.Rejected))
	rep.set("mgd.http.hit_overhead_s", hitS-p.jobqHitS)
	rep.set("mgd.http.cold_overhead_s", median(o.coldOverhead))
	rep.set("mgd.http.hit_p50_s", hitS)
	rep.set("mgd.http.cold_p50_s", median(svcT.samples[kindOp]))
	rep.set("mgd.http.hit_p99_s", perfstat.Quantile(svcT.samples[kindAlt], 0.99))
	rep.set("mgd.http.cold_p99_s", perfstat.Quantile(svcT.samples[kindOp], 0.99))
	rep.set("mgd.jobs_per_s", float64(o.jobs)/o.window)
	rep.set("mgd.cpu_s_per_job", svc.cpuPerJob)
	rep.set("mgd.resp_bytes_per_job", float64(o.respBytes)/float64(o.jobs))

	sync, over := dist.obs[false], dist.obs[true]
	syncS := sync.solveS / float64(sync.solves)
	rep.set("mgmpi.rank1.solve_s", p.rank1S)
	rep.set("mgmpi.sync.solve_s", median(distT.samples[kindOp]))
	rep.set("mgmpi.overlap.solve_s", median(distT.samples[kindAlt]))
	rep.set("mgmpi.chan.solve_s", p.chanS)
	rep.set("mgmpi.speedup_2", p.rank1S/syncS)
	rep.set("mgmpi.compute_s.sync", (sync.solveS-sync.blockedS)/float64(sync.solves))
	rep.set("mgmpi.compute_s.overlap", (over.solveS-over.blockedS)/float64(over.solves))
	rep.set("mgmpi.rank_skew_s", sync.skewS/float64(sync.solves))
	rep.set("mgmpi.overlap_gain", 1-(over.blockedS/float64(over.solves))/(sync.blockedS/float64(sync.solves)))
	rep.set("mpi.blocked_s.sync", sync.blockedS/float64(sync.solves))
	rep.set("mpi.blocked_s.overlap", over.blockedS/float64(over.solves))
	rep.set("mpi.blocked_share.sync", sync.blockedS/sync.solveS)
	rep.set("mpi.messages", float64(sync.messages))
	rep.set("mpi.payload_bytes", float64(sync.payload))
	rep.set("mpinet.wire_bytes", float64(sync.wireBytes))
	rep.set("mpinet.rtt_s", dist.rttS)
	rep.set("mpinet.stream_gbs", dist.streamGBs)
	rep.set("mpinet.bootstrap_s", dist.bootstrapS)

	rep.set("trace.overhead_ratio", overhead)
}
