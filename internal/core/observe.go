// Observability hooks of the SAC solver: every metrics/trace call site
// lives here so that core.go stays the clean transliteration of the
// paper's SAC program. The code-size figure (harness.RunCodeSize) counts
// core.go alone as the generic program and this file as its
// instrumentation.
//
// The hooks partition the solve into disjoint timed windows — the fused
// kernels (fused.go), the border exchange (comm3), and the initial-guess
// allocation (newGuess) — so Snapshot.Coverage sums to at most the
// "solve" pseudo-kernel recorded by observedSolve. Region probes
// (resid/smooth/fine2coarse/coarse2fine) go to the trace only and never
// feed the collector, keeping the two views free of double counting.
package core

import (
	"math"
	"sync/atomic"
	"time"

	"repro/internal/aplib"
	"repro/internal/array"
	"repro/internal/metrics"
	"repro/internal/nas"
	wl "repro/internal/withloop"
)

// levelOf computes log2(interior extent) of an extended grid.
func levelOf(a *array.Array) int {
	return levelOfExtent(a.Shape()[0] - 2)
}

// probe wraps one V-cycle operation with the timing hook and, when the
// environment carries a tracer, emits a span event. The level tag is log2
// of the grid's interior extent. Region spans go to the trace only — the
// per-kernel collector is fed by the fused loops underneath (fused.go), so
// the two views never double-count the same nanoseconds.
func (s *Solver) probe(region string, a *array.Array, f func() *array.Array) *array.Array {
	tr := s.Env.Trace
	if s.Probe == nil && tr == nil {
		return f()
	}
	start := time.Now()
	out := f()
	s.region(region, levelOf(a), time.Since(start))
	return out
}

// region reports one V-cycle operation's time to the timing hook and the
// tracer.
func (s *Solver) region(region string, level int, elapsed time.Duration) {
	if s.Probe != nil {
		s.Probe(region, level, elapsed)
	}
	if tr := s.Env.Trace; tr != nil {
		tr.Emit(metrics.Event{Ev: "span", Kernel: region, Level: level, Nanos: int64(elapsed)})
	}
}

// newGuess allocates MGrid's zero initial guess. The allocation faults in
// a full fine grid — at class-A sizes a solid slice of the solve — so
// with a collector attached it is recorded under its own "genarray" row
// rather than vanishing from the coverage sum.
func (s *Solver) newGuess(v *array.Array) *array.Array {
	e := s.Env
	if m := e.Metrics; m != nil {
		start := time.Now()
		u := aplib.GenarrayVal(e, v.Shape(), 0.0)
		m.Record(0, "genarray", levelOf(v), int64(u.Size()), time.Since(start))
		return u
	}
	return aplib.GenarrayVal(e, v.Shape(), 0.0)
}

// traceIter marks the start of MGrid iteration i+1 in the event trace and
// advances the health monitor's iteration clock (iteration 1 starts a
// fresh monitored run, so repeated solves on one environment work).
func (s *Solver) traceIter(i int, v *array.Array) {
	s.Env.Health.BeginIteration(i + 1)
	if tr := s.Env.Trace; tr != nil {
		tr.Emit(metrics.Event{Ev: "iter", Iter: i + 1, Level: levelOf(v)})
	}
}

// subRelaxObserved is residSubtract's folded kernel dispatch with the
// health monitor consulted: the first finest-grid residual of each MGrid
// iteration — the convergence signal ‖v − A·u‖ — switches to subRelaxNorm,
// which folds the NPB norm accumulation into the traversal it performs
// anyway (bit-identical output grid, no extra pass), and feeds the
// monitor's contraction tracking. Every other residual of the iteration
// (the V-cycle interior) takes the plain folded kernel.
func (s *Solver) subRelaxObserved(v, ub *array.Array) *array.Array {
	e := s.Env
	if h := e.Health; h.WantsResid() {
		out, sumSq, maxAbs := subRelaxNorm(e, v, ub, s.Operator)
		s.observeResidual(out, sumSq, maxAbs)
		return out
	}
	return subRelax(e, v, ub, s.Operator)
}

// observeResidual feeds the iteration residual r's norm partials to the
// health monitor.
func (s *Solver) observeResidual(r *array.Array, sumSq, maxAbs float64) {
	if f := testFaultNorm; f != nil {
		sumSq = f(sumSq)
	}
	n := int64(r.Shape()[0] - 2)
	s.Env.Health.ObserveResidual(levelOf(r), sumSq, maxAbs, n*n*n)
}

// Test-only fault injection (core's health tests): testFaultGrid may
// corrupt a kernel's output grid from inside the sampled guard window —
// the written NaN lands in the real grid and propagates through the
// stencils like a genuine corruption — and testFaultNorm may rewrite the
// folded residual sum of squares to fake a stall. Both are nil outside
// tests.
var (
	testFaultGrid func(kernel string, level int, data []float64)
	testFaultNorm func(sumSq float64) float64
)

// healthSample is the fused kernels' NaN/Inf guard: a strided scan of the
// output grid, called by forPlanes inside the kernel's timed window. At
// the default stride of 1024 it touches a few dozen cache lines per
// invocation — checking every point would double the kernel's memory
// traffic — and still flags corruption within one iteration: NaNs spread
// one halo per stencil application, and the per-iteration residual norm
// is an every-point detector one iteration later at the latest.
func healthSample(e *wl.Env, kernel string, level int, data []float64) {
	h := e.Health
	if h == nil {
		return
	}
	if f := testFaultGrid; f != nil {
		f(kernel, level, data)
	}
	stride := h.SampleStride()
	if stride < 1 {
		stride = 1
	}
	for i := 0; i < len(data); i += stride {
		if v := data[i]; math.IsNaN(v) || math.IsInf(v, 0) {
			h.ObserveNonFinite(kernel, level)
			return
		}
	}
}

// traceLevel emits the "down" transition into r's V-cycle level and
// returns the matching "up" emitter for the caller to defer.
func (s *Solver) traceLevel(r *array.Array) func() {
	tr := s.Env.Trace
	if tr == nil {
		return func() {}
	}
	level := levelOf(r)
	tr.Emit(metrics.Event{Ev: "level", Level: level, Dir: "down"})
	return func() { tr.Emit(metrics.Event{Ev: "level", Level: level, Dir: "up"}) }
}

// comm3 is the folded SetupPeriodicBorder body: one in-place border
// exchange, recorded under its own collector row when a collector is
// attached (the exchange runs outside the fused kernels' timed windows).
func (s *Solver) comm3(a *array.Array) {
	if m := s.Env.Metrics; m != nil {
		start := time.Now()
		nas.Comm3(a)
		n := int64(a.Shape()[0])
		m.Record(0, "comm3", levelOf(a), 6*n*n, time.Since(start))
		return
	}
	nas.Comm3(a)
}

// The stages of a pipelined sweep (pipeline.go), as its clocks index them.
const (
	stInterp = iota
	stResid
	stWrap
	stSmooth
	stProject
	nStages
)

// sweepWatch files one pipelined sweep in the ledger; it exists only while
// a collector, tracer or probe is attached (a nil watch does nothing). The
// stages of a sweep interleave plane by plane, so none has a wall-clock
// window of its own: every worker samples its time per stage as it goes
// (stageClock), the sweep's wall time is apportioned over the stages by
// those sums, and each share is filed where the three-call sequence files
// the same work — the stage's (kernel, level) row with its usual point
// count, the in-ring frame wraps under comm3, and the regions the Probe and
// the tracer know, in the sequence's order.
type sweepWatch struct {
	s       *Solver
	started time.Time
	border  time.Duration         // the border exchange that led the sweep in
	d       [nStages]atomic.Int64 // every worker's sampled time per stage
}

func (s *Solver) watch() *sweepWatch {
	if s.Probe == nil && s.Env.Trace == nil && s.Env.Metrics == nil {
		return nil
	}
	return &sweepWatch{s: s, started: time.Now()}
}

// led marks the end of the border exchange that leads the sweep in (which
// s.comm3 files itself) and restarts the watch behind it.
func (w *sweepWatch) led() {
	if w != nil {
		now := time.Now()
		w.border, w.started = now.Sub(w.started), now
	}
}

// A worker's stage clock runs on clockRun consecutive planes of every
// clockEvery of its span, counted from the end of the span's lead-in — on
// the way up the first plane where every stage runs, on the way down the
// even plane before the first that projects; the other planes read no
// clock. Reading it once per stage on every plane made an observed class-S
// solve 1.13× a plain one. The stages cost the same on every full plane,
// so the sampled sums split the sweep's wall time as the full sums did;
// the run is two planes long so that the way down samples an odd plane,
// which projects, beside an even one.
const (
	clockEvery = 16
	clockRun   = 2
)

// stageClock is one worker's sampling clock: plane starts a plane of the
// span, lap charges the time since the plane started or the previous lap
// to a stage, and stop adds the worker's sums to the watch's.
type stageClock struct {
	w    *sweepWatch
	on   bool // the current plane is sampled
	last time.Time
	d    [nStages]time.Duration
}

// plane starts plane k of the span's count (the lead-in's planes have
// k < 0 and are never sampled); a sampled plane restarts the clock.
func (c *stageClock) plane(k int) {
	c.on = c.w != nil && k >= 0 && k%clockEvery < clockRun
	if c.on {
		c.last = time.Now()
	}
}

func (c *stageClock) lap(stage int) {
	if c.on {
		now := time.Now()
		c.d[stage] += now.Sub(c.last)
		c.last = now
	}
}

func (c *stageClock) stop() {
	if c.w != nil {
		for i, d := range c.d {
			c.w.d[i].Add(int64(d))
		}
	}
}

// shares apportions the wall time since the watch restarted by the
// workers' sampled sums, and files the frame wraps' share.
func (w *sweepWatch) shares(sw *sweep) (d [nStages]time.Duration) {
	wall, total := float64(time.Since(w.started)), int64(0)
	for i := range d {
		total += w.d[i].Load()
	}
	for i := range d {
		d[i] = time.Duration(wall * float64(w.d[i].Load()) / float64(max(total, 1)))
	}
	n := int64(sw.n)
	w.s.Env.Metrics.Record(0, "comm3", sw.mid.level, 6*n*n, d[stWrap])
	return d
}

func (w *sweepWatch) fileUp(sw *sweep) {
	if w == nil {
		return
	}
	d := w.shares(sw)
	sw.top.record(d[stInterp])
	sw.mid.record(d[stResid])
	sw.end.record(d[stSmooth])
	w.s.region("coarse2fine", sw.top.level-1, w.border+d[stInterp])
	w.s.region("resid", sw.mid.level, d[stResid])
	w.s.region("smooth", sw.end.level, d[stWrap]+d[stSmooth])
}

func (w *sweepWatch) fileDown(sw *sweep) {
	if w == nil {
		return
	}
	d := w.shares(sw)
	sw.mid.record(d[stResid])
	sw.end.record(d[stProject])
	w.s.region("resid", sw.mid.level, w.border+d[stResid])
	w.s.region("fine2coarse", sw.mid.level, d[stWrap]+d[stProject])
}

// observedSolve is Benchmark.Solve with a collector or tracer attached:
// the whole timed section becomes the "solve" pseudo-kernel, the
// denominator of Snapshot.Coverage. Points is the NPB convention — fine
// grid points per residual+V-cycle pass, Iter iterations plus the
// closing residual.
func (b *Benchmark) observedSolve() (rnm2, rnmu float64) {
	e := b.Solver.Env
	start := time.Now()
	b.u = b.Solver.MGrid(b.v, b.Class.Iter)
	rnm2, rnmu = b.Solver.ResidNorm(b.v, b.u, b.Class.N)
	elapsed := time.Since(start)
	n := int64(b.Class.N)
	e.Metrics.Record(0, metrics.TotalKernel, b.Class.LT(),
		n*n*n*int64(b.Class.Iter+1), elapsed)
	e.Trace.Emit(metrics.Event{Ev: "solve", Level: b.Class.LT(),
		Nanos: int64(elapsed), Iter: b.Class.Iter, Rnm2: rnm2})
	// The closing residual is one more contraction observation — and the
	// norms are an every-point NaN check of the final grid.
	e.Health.ObserveFinal(rnm2, rnmu)
	return rnm2, rnmu
}
