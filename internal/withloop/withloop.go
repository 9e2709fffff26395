// Package withloop implements SAC's WITH-loop — the single language
// construct from which all compound array operations in this repository are
// built (paper, Fig. 1).
//
// A WITH-loop consists of a generator and an operation:
//
//	with ( lower <= iv < upper step s width w )
//	    genarray( shp, expr )      → Genarray
//	    modarray( array, expr )    → Modarray
//	    fold( op, neutral, expr )  → Fold
//
// The generator denotes the index-vector set
//
//	{ iv | ∀j: lower[j] <= iv[j] < upper[j]  ∧  (iv[j]-lower[j]) mod s[j] < w[j] }
//
// Because SAC has no built-in compound array operations, everything the MG
// benchmark needs — element-wise arithmetic, condense, scatter, embed, take,
// relaxation stencils — is defined in terms of these three forms (see
// internal/aplib and internal/stencil).
//
// # Optimization levels
//
// The paper's performance results depend on sac2c's "aggressive compiler
// optimizations" (WITH-loop folding, specialization, implicit stencil
// optimization). A Go library cannot compile, so the engine models the
// compiler as a runtime optimization level on the evaluation environment:
//
//	O0  fully generic evaluation: every element goes through index-vector
//	    unflattening and a per-element closure call — the semantics-level
//	    interpreter, the "unoptimized SAC" baseline.
//	O1  dense-box fast paths: full-range generators of rank ≤ 3 iterate
//	    with nested counters instead of unflattening.
//	O2  library fusion: array-library functions (internal/aplib) replace
//	    their WITH-loop definitions with flat fused loops, and modarray on
//	    a uniquely-referenced argument updates in place (SAC's
//	    reference-count-1 reuse).
//	O3  stencil specialization: the 27-point relaxation kernel uses the
//	    fused four-multiplication form that the paper says sac2c derives
//	    implicitly (internal/stencil).
//
// Levels are cumulative. The engine guarantees identical results at every
// level; the equivalence is tested exhaustively.
//
// # Parallel execution
//
// Every WITH-loop is implicitly parallel: the generator's index set is
// flattened and partitioned across the Env's scheduler pool, mirroring
// SAC's implicit multithreading. Results are bit-identical for any worker
// count (fold partials combine in block order).
package withloop

import (
	"fmt"

	"repro/internal/array"
	"repro/internal/health"
	"repro/internal/mempool"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/shape"
)

// OptLevel models the sac2c optimization level. See the package comment.
type OptLevel int

const (
	// O0 is fully generic per-element evaluation.
	O0 OptLevel = iota
	// O1 adds dense-box iteration fast paths.
	O1
	// O2 adds array-library fusion and in-place reuse.
	O2
	// O3 adds 27-point stencil specialization.
	O3
)

// String returns "O0".."O3".
func (o OptLevel) String() string { return fmt.Sprintf("O%d", int(o)) }

// DefaultSeqThreshold is SAC's "too small to split" rule: an index space of
// at most this many points (16³) runs sequentially. Distributed solves use
// the same rule for the coarse levels every rank solves whole.
const DefaultSeqThreshold = 4096

// Env is the runtime environment of a "compiled SAC program": the scheduler
// (implicit multithreading), the memory manager (reference-count-style
// reuse), and the optimization level. Envs are cheap descriptors; the same
// Env is shared by every operation of one program run.
type Env struct {
	// Sched executes the index spaces. nil means sequential.
	Sched *sched.Pool
	// Pool recycles array buffers. nil means plain allocation.
	Pool *mempool.Pool
	// Opt is the modeled compiler optimization level.
	Opt OptLevel
	// SeqThreshold runs WITH-loops with at most this many index vectors
	// sequentially, regardless of the pool — SAC's small-grid policy.
	SeqThreshold int
	// Variant, when non-empty, forces the inner-loop kernel backend
	// (VariantScalar/Buffered/SIMD) for every plane kernel, overriding
	// the rule (DefaultVariant) — a service request's field, or a test or
	// benchmark pinning one backend. The MG_FORCE_VARIANT environment
	// variable overrides even this (VariantFor). Any other value panics at
	// the first kernel.
	Variant string
	// Metrics, when non-nil, receives per-(kernel, level) invocation
	// statistics from the fused kernels and the benchmark driver
	// (internal/metrics). nil disables collection at the cost of one nil
	// check per kernel invocation. Prefer AttachMetrics, which also wires
	// the environment's own pool for worker busy-time accounting.
	Metrics *metrics.Collector
	// Trace, when non-nil, receives structured V-cycle events — level
	// transitions, kernel spans, iteration markers, solve summaries — as
	// JSON lines. nil disables tracing for free. Prefer AttachTrace,
	// which also wires the environment's own pool for per-worker span
	// events.
	Trace *metrics.Tracer
	// Health, when non-nil, receives runtime convergence signals from the
	// solver hooks: per-iteration residual norms, sampled NaN/Inf kernel
	// guards, and (via the collector snapshot) worker load balance. nil
	// disables monitoring at the cost of one nil check per hook site.
	Health *health.Monitor
}

// Default returns the environment of the paper's sequential measurements:
// single worker, memory pooling on, full optimization.
func Default() *Env {
	return &Env{
		Sched:        sched.Sequential,
		Pool:         mempool.New(true),
		Opt:          O3,
		SeqThreshold: DefaultSeqThreshold,
	}
}

// Parallel returns an environment with its own worker pool of the given
// size, memory pooling, and full optimization — the paper's implicitly
// parallelized configuration. Close the returned pool via env.Close.
func Parallel(workers int) *Env {
	return &Env{
		Sched:        sched.NewPool(workers),
		Pool:         mempool.New(true),
		Opt:          O3,
		SeqThreshold: DefaultSeqThreshold,
	}
}

// Service returns an environment for one solve job of a resident
// process: it schedules onto the given shared pool and draws arrays from
// a fresh per-job Scope of the given arena (nil arguments select the
// process-global sched.Shared and mempool.Shared), with full
// optimization. The environment's Close is safe — persistent pools
// ignore it — and the scope's Stats are the job's memory accounting.
func Service(pool *sched.Pool, arena *mempool.Pool) *Env {
	if pool == nil {
		pool = sched.Shared()
	}
	if arena == nil {
		arena = mempool.Shared()
	}
	return &Env{
		Sched:        pool,
		Pool:         arena.Scope(),
		Opt:          O3,
		SeqThreshold: DefaultSeqThreshold,
	}
}

// Close releases the environment's worker pool. Persistent pools — the
// shared sequential pool, the process-global service pool — ignore
// Close, so environments over shared runtimes are safe to close
// unconditionally.
func (e *Env) Close() {
	if e.Sched != nil {
		e.Sched.Close()
	}
}

// Observing reports whether any observability sink is attached.
func (e *Env) Observing() bool { return e.Metrics != nil || e.Trace != nil || e.Health != nil }

// AttachMetrics installs a collector on the environment and, when the
// environment owns its pool, on the pool as well (per-worker busy time).
// Persistent pools (Sequential, the shared service pool) are never
// mutated — other environments in the process may be using them; their
// environments still collect kernel metrics, just without pool busy
// accounting. AttachMetrics(nil) detaches both.
func (e *Env) AttachMetrics(c *metrics.Collector) {
	e.Metrics = c
	if e.Sched != nil && !e.Sched.Persistent() {
		e.Sched.SetMetrics(c)
	}
}

// AttachTrace installs a tracer on the environment and, when the
// environment owns its pool, on the pool as well (per-worker "wspan" busy
// slices for the Perfetto worker tracks). Like AttachMetrics, persistent
// pools are never mutated. AttachTrace(nil) detaches both.
func (e *Env) AttachTrace(t *metrics.Tracer) {
	e.Trace = t
	if e.Sched != nil && !e.Sched.Persistent() {
		e.Sched.SetTracer(t)
	}
}

// Workers returns the number of workers the environment schedules onto.
func (e *Env) Workers() int {
	if e.Sched == nil {
		return 1
	}
	return e.Sched.Workers()
}

// PlanFor resolves how one plane-kernel invocation at the given MG grid
// level runs: the sequential threshold of its plane loop and the
// inner-loop kernel variant (VariantFor). perItem is the number of index
// vectors each loop iteration covers; SeqThreshold is defined in index
// vectors, so it is divided by perItem before reaching the scheduler.
func (e *Env) PlanFor(level, perItem int) (seqThreshold int, variant string) {
	return e.seqThreshold(perItem), VariantFor(level, e.Variant)
}

// seqThreshold converts SeqThreshold, defined in index vectors, into
// iterations of a loop whose iterations each cover perItem of them.
func (e *Env) seqThreshold(perItem int) int {
	if perItem > 0 {
		return e.SeqThreshold / perItem
	}
	return e.SeqThreshold
}

func (e *Env) pool() *mempool.Pool { return e.Pool }

// NewArray allocates a zeroed array through the environment's memory
// manager.
func (e *Env) NewArray(shp shape.Shape) *array.Array {
	return e.pool().NewArray(shp)
}

// NewArrayDirty allocates an array with unspecified contents through the
// environment's memory manager, for callers
// that overwrite every element.
func (e *Env) NewArrayDirty(shp shape.Shape) *array.Array {
	return e.pool().NewArrayDirty(shp)
}

// Release returns an array — storage and header — to the memory manager:
// the moment SAC's reference counter would drop to zero. The caller must
// not use a afterwards. Release(nil) is a no-op.
func (e *Env) Release(a *array.Array) {
	if a == nil {
		return
	}
	e.pool().Release(a)
}

// --- Generators -------------------------------------------------------------

// Generator denotes a rectangular, optionally strided index-vector set:
// ( Lower <= iv < Upper step Step width Width ). Step and Width are nil for
// dense generators; a non-nil Step with nil Width means width 1 (the SAC
// default).
type Generator struct {
	Lower, Upper []int
	Step, Width  []int
}

// Gen builds a dense generator (lower <= iv < upper).
func Gen(lower, upper []int) Generator { return Generator{Lower: lower, Upper: upper} }

// Full builds the generator that covers every index of shp — the SAC
// notation ( . <= iv <= . ) for a result of that shape.
func Full(shp shape.Shape) Generator {
	return Gen(shape.Zeros(shp.Rank()), []int(shp.Clone()))
}

// Inner builds the generator covering every non-boundary index of shp —
// (1*ones <= iv < shp-1), the index set of relaxation kernels.
func Inner(shp shape.Shape) Generator {
	return Gen(shape.Ones(shp.Rank()), shape.AddScalar([]int(shp), -1))
}

// WithStep returns a copy of g with the given step filter (width defaults
// to 1 in every axis).
func (g Generator) WithStep(step []int) Generator {
	g.Step = step
	return g
}

// rank returns the rank of the generator's index vectors.
func (g Generator) rank() int { return len(g.Lower) }

// validate panics unless the generator is well-formed for the given rank.
func (g Generator) validate(rank int) {
	if len(g.Lower) != rank || len(g.Upper) != rank {
		panic(fmt.Sprintf("withloop: generator bounds %v/%v do not have rank %d",
			g.Lower, g.Upper, rank))
	}
	if g.Step != nil && len(g.Step) != rank {
		panic(fmt.Sprintf("withloop: generator step %v does not have rank %d", g.Step, rank))
	}
	if g.Width != nil && len(g.Width) != rank {
		panic(fmt.Sprintf("withloop: generator width %v does not have rank %d", g.Width, rank))
	}
	if g.Width != nil && g.Step == nil {
		panic("withloop: generator width without step")
	}
	for j := 0; j < rank; j++ {
		if g.Step != nil {
			if g.Step[j] < 1 {
				panic(fmt.Sprintf("withloop: generator step %v must be >= 1", g.Step))
			}
			w := 1
			if g.Width != nil {
				w = g.Width[j]
			}
			if w < 1 || w > g.Step[j] {
				panic(fmt.Sprintf("withloop: generator width %v must satisfy 1 <= width <= step %v",
					g.Width, g.Step))
			}
		}
	}
}

// positions returns, per axis, the list of coordinate values the generator
// selects. The generator's index set is the cross product of these lists.
func (g Generator) positions() [][]int {
	pos := make([][]int, g.rank())
	for j := range pos {
		var list []int
		step, width := 1, 1
		if g.Step != nil {
			step = g.Step[j]
			if g.Width != nil {
				width = g.Width[j]
			}
		}
		for i := g.Lower[j]; i < g.Upper[j]; i++ {
			if (i-g.Lower[j])%step < width {
				list = append(list, i)
			}
		}
		pos[j] = list
	}
	return pos
}

// Count returns the number of index vectors in the generator's set.
func (g Generator) Count() int {
	n := 1
	for _, p := range g.positions() {
		n *= len(p)
	}
	return n
}

// isFull reports whether the generator densely covers all of shp.
func (g Generator) isFull(shp shape.Shape) bool {
	if g.rank() != shp.Rank() || g.Step != nil {
		return false
	}
	for j := range g.Lower {
		if g.Lower[j] != 0 || g.Upper[j] != shp[j] {
			return false
		}
	}
	return true
}

// isDense reports whether the generator has no step/width filter.
func (g Generator) isDense() bool { return g.Step == nil }

// String renders the generator in SAC syntax.
func (g Generator) String() string {
	s := fmt.Sprintf("(%v <= iv < %v", shape.Shape(g.Lower), shape.Shape(g.Upper))
	if g.Step != nil {
		s += fmt.Sprintf(" step %v", shape.Shape(g.Step))
		if g.Width != nil {
			s += fmt.Sprintf(" width %v", shape.Shape(g.Width))
		}
	}
	return s + ")"
}

// --- iteration core ----------------------------------------------------------

// iterate invokes visit(iv, off) for every index vector in g's set, where
// off is the row-major offset of iv within shp. The index space is
// partitioned across the environment's workers; visit must only write to
// locations derived from off. The iv buffer passed to visit is reused
// between calls on the same worker and must not be retained.
func (e *Env) iterate(shp shape.Shape, g Generator, visit func(iv shape.Index, off int)) {
	g.validate(shp.Rank())
	rank := shp.Rank()
	if rank == 0 {
		// Scalar space: the only index vector is [].
		visit(shape.Index{}, 0)
		return
	}

	// Fast path (O1+): dense full-range rank-3 generators iterate with
	// plain counters — by far the most common case in MG.
	if e.Opt >= O1 && g.isDense() {
		if rank == 3 {
			e.iterateDense3(shp, g, visit)
			return
		}
		if rank <= 2 {
			e.iterateDenseLow(shp, g, visit)
			return
		}
	}

	// Generic path: cross product of per-axis position lists.
	pos := g.positions()
	total := 1
	for _, p := range pos {
		total *= len(p)
	}
	if total == 0 {
		return
	}
	// Split over the first axis' positions when possible so that workers
	// get large contiguous sub-boxes; otherwise flatten everything.
	inner := total / len(pos[0])
	strides := shp.Strides()
	e.Sched.For(len(pos[0]), e.seqThreshold(inner), func(lo, hi, _ int) {
		iv := make(shape.Index, rank)
		sub := make([]int, rank) // position-list cursor per axis
		for p0 := lo; p0 < hi; p0++ {
			iv[0] = pos[0][p0]
			for j := 1; j < rank; j++ {
				sub[j] = 0
				iv[j] = pos[j][0]
			}
			for c := 0; c < inner; c++ {
				off := 0
				for j := 0; j < rank; j++ {
					off += iv[j] * strides[j]
				}
				visit(iv, off)
				// Odometer increment over axes 1..rank-1.
				for j := rank - 1; j >= 1; j-- {
					sub[j]++
					if sub[j] < len(pos[j]) {
						iv[j] = pos[j][sub[j]]
						break
					}
					sub[j] = 0
					iv[j] = pos[j][0]
				}
			}
		}
	})
}

// iterateDense3 handles dense rank-3 generators with nested counters.
func (e *Env) iterateDense3(shp shape.Shape, g Generator, visit func(iv shape.Index, off int)) {
	l0, l1, l2 := g.Lower[0], g.Lower[1], g.Lower[2]
	u0, u1, u2 := g.Upper[0], g.Upper[1], g.Upper[2]
	if u0 <= l0 || u1 <= l1 || u2 <= l2 {
		return
	}
	n1, n2 := shp[1], shp[2]
	e.Sched.For(u0-l0, e.seqThreshold((u1-l1)*(u2-l2)), func(lo, hi, _ int) {
		iv := make(shape.Index, 3)
		for i0 := l0 + lo; i0 < l0+hi; i0++ {
			iv[0] = i0
			base0 := i0 * n1 * n2
			for i1 := l1; i1 < u1; i1++ {
				iv[1] = i1
				base1 := base0 + i1*n2
				for i2 := l2; i2 < u2; i2++ {
					iv[2] = i2
					visit(iv, base1+i2)
				}
			}
		}
	})
}

// iterateDenseLow handles dense rank-1 and rank-2 generators.
func (e *Env) iterateDenseLow(shp shape.Shape, g Generator, visit func(iv shape.Index, off int)) {
	switch shp.Rank() {
	case 1:
		l0, u0 := g.Lower[0], g.Upper[0]
		if u0 <= l0 {
			return
		}
		e.Sched.For(u0-l0, e.SeqThreshold, func(lo, hi, _ int) {
			iv := make(shape.Index, 1)
			for i := l0 + lo; i < l0+hi; i++ {
				iv[0] = i
				visit(iv, i)
			}
		})
	case 2:
		l0, l1 := g.Lower[0], g.Lower[1]
		u0, u1 := g.Upper[0], g.Upper[1]
		if u0 <= l0 || u1 <= l1 {
			return
		}
		n1 := shp[1]
		e.Sched.For(u0-l0, e.seqThreshold(u1-l1), func(lo, hi, _ int) {
			iv := make(shape.Index, 2)
			for i0 := l0 + lo; i0 < l0+hi; i0++ {
				iv[0] = i0
				base := i0 * n1
				for i1 := l1; i1 < u1; i1++ {
					iv[1] = i1
					visit(iv, base+i1)
				}
			}
		})
	}
}

// --- the three WITH-loop operations ------------------------------------------

// ElemFunc computes the WITH-loop body expression for one index vector.
// The iv buffer is reused between calls; implementations must not retain it.
type ElemFunc func(iv shape.Index) float64

// Genarray evaluates
//
//	with (g) genarray(shp, f(iv))
//
// producing an array of the given shape whose elements are f(iv) inside the
// generator's index set and 0 elsewhere.
func (e *Env) Genarray(shp shape.Shape, g Generator, f ElemFunc) *array.Array {
	g.validate(shp.Rank())
	var out *array.Array
	if g.isFull(shp) {
		out = e.NewArrayDirty(shp) // every element will be written
	} else {
		out = e.NewArray(shp) // zero default outside the generator
	}
	data := out.Data()
	e.iterate(shp, g, func(iv shape.Index, off int) {
		data[off] = f(iv)
	})
	return out
}

// Modarray evaluates
//
//	with (g) modarray(a, f(iv))
//
// producing an array of a's shape whose elements are f(iv) inside the
// generator's index set and a[iv] elsewhere. The argument a is not
// modified. f may read a: the new array is written separately.
func (e *Env) Modarray(a *array.Array, g Generator, f ElemFunc) *array.Array {
	g.validate(a.Dim())
	out := e.NewArrayDirty(a.Shape())
	copy(out.Data(), a.Data())
	data := out.Data()
	e.iterate(a.Shape(), g, func(iv shape.Index, off int) {
		data[off] = f(iv)
	})
	return out
}

// ModarrayReuse is Modarray for a uniquely-referenced argument: at O2+ the
// engine performs SAC's reference-count-1 optimization and updates a in
// place, returning it. Below O2 it behaves exactly like Modarray (and the
// caller's a is released), so results are identical at every level.
// f must not read positions of a that the generator also writes, as the
// update order is unspecified; border-initialization loops satisfy this.
func (e *Env) ModarrayReuse(a *array.Array, g Generator, f ElemFunc) *array.Array {
	if e.Opt >= O2 {
		g.validate(a.Dim())
		data := a.Data()
		e.iterate(a.Shape(), g, func(iv shape.Index, off int) {
			data[off] = f(iv)
		})
		return a
	}
	out := e.Modarray(a, g, f)
	e.Release(a)
	return out
}

// FoldOp combines two values of the fold; it must be associative and
// commutative with the given neutral element, exactly as SAC requires.
type FoldOp func(acc, v float64) float64

// Fold evaluates
//
//	with (g) fold(op, neutral, f(iv))
//
// folding f over the generator's index set. Partial results are combined in
// deterministic block order, so the result is identical for every worker
// count.
func (e *Env) Fold(shp shape.Shape, g Generator, op FoldOp, neutral float64, f ElemFunc) float64 {
	g.validate(shp.Rank())
	// Collect the fold via iterate's partitioning: each worker folds its
	// sub-range; determinism needs ordered combining, so Fold uses the
	// generic position-list path with sched.Reduce over the outer axis.
	pos := g.positions()
	if shp.Rank() == 0 {
		return op(neutral, f(shape.Index{}))
	}
	total := 1
	for _, p := range pos {
		total *= len(p)
	}
	if total == 0 {
		return neutral
	}
	rank := shp.Rank()
	inner := total / len(pos[0])
	return e.Sched.Reduce(len(pos[0]), e.seqThreshold(inner), neutral,
		func(lo, hi int) float64 {
			iv := make(shape.Index, rank)
			sub := make([]int, rank)
			acc := neutral
			for p0 := lo; p0 < hi; p0++ {
				iv[0] = pos[0][p0]
				for j := 1; j < rank; j++ {
					sub[j] = 0
					iv[j] = pos[j][0]
				}
				for c := 0; c < inner; c++ {
					acc = op(acc, f(iv))
					for j := rank - 1; j >= 1; j-- {
						sub[j]++
						if sub[j] < len(pos[j]) {
							iv[j] = pos[j][sub[j]]
							break
						}
						sub[j] = 0
						iv[j] = pos[j][0]
					}
				}
			}
			return acc
		}, func(a, b float64) float64 { return op(a, b) })
}
