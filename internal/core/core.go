// Package core is the paper's contribution: the generic, high-level
// SAC implementation of NAS-MG (paper §4, Figs. 4, 6 and 7), transliterated
// into Go on top of the WITH-loop engine and the SAC array library.
//
// The code mirrors the SAC source function by function:
//
//	double[+] MGrid(double[+] v, int iter)        → Solver.MGrid
//	double[+] VCycle(double[+] r)                 → Solver.VCycle
//	double[+] Resid(double[+] u)                  → Solver.Resid
//	double[+] Smooth(double[+] r)                 → Solver.Smooth
//	double[+] Fine2Coarse(double[+] r)            → Solver.Fine2Coarse
//	double[+] Coarse2Fine(double[+] rn)           → Solver.Coarse2Fine
//	SetupPeriodicBorder(u)                        → Solver.SetupPeriodicBorder
//
// Like the SAC original, every function is rank-generic: the same MGrid
// solves 1-, 2- and 3-dimensional periodic Poisson problems ("this SAC code
// could be reused for grids of any dimension without alteration"). Grids
// are in extended form — one artificial periodic boundary element on each
// side of every axis (Fig. 5) — which is why VCycle recurses while
// shape(r)[0] > 2+2. The folded O3 kernels (fused.go) take cubes; a grid
// of any other shape runs the generic composition at O3, as at O0–O2.
//
// # Memory semantics
//
// The functions are written in SAC's functional style: each operation
// produces a fresh array, and this package plays the role of SAC's
// reference counter by releasing intermediates into the environment's
// memory pool the moment their last consumer has run. One deliberate
// deviation mirrors a SAC reuse optimization: at optimization level O2+,
// SetupPeriodicBorder updates the argument's boundary elements in place
// instead of copying the whole grid. The boundary planes of an extended
// grid are dead values that every consumer re-initialises, so the
// destructive update is unobservable to the algorithm (asserted by the
// equivalence tests, which compare results across all optimization
// levels).
package core

import (
	"fmt"
	"time"

	"repro/internal/aplib"
	"repro/internal/array"
	"repro/internal/nas"
	"repro/internal/nasrand"
	"repro/internal/shape"
	"repro/internal/stencil"
	wl "repro/internal/withloop"
)

// Solver runs the SAC-style MG algorithm in a given environment with a
// given smoother. The zero value is invalid; use New.
type Solver struct {
	// Env is the WITH-loop evaluation environment (scheduling, memory
	// pool, optimization level).
	Env *wl.Env
	// Smoother holds the S-stencil coefficients (class dependent).
	Smoother stencil.Coeffs
	// Operator (A), Project (P) and Interp (Q) are the remaining stencils.
	// They default to the NPB 3-D coefficient vectors; rank-generic reuse
	// on other dimensions (e.g. the 2-D heat example) substitutes
	// dimension-appropriate sets — the paper's point that programmers can
	// customise the building blocks themselves.
	Operator, Project, Interp stencil.Coeffs
	// Probe, when non-nil, receives per-operation timings (see nas.Probe).
	Probe nas.Probe
	// Cancel, when non-nil, is polled once at the top of every MGrid
	// iteration; when it returns true the remaining iterations are
	// abandoned and the current approximation is returned. Service
	// callers (internal/jobq) poll a context here so a cancelled job
	// releases its workers within one V-cycle. A nil Cancel costs one
	// predictable nil check per iteration and never changes results.
	Cancel func() bool

	// watch files the running pipelined sweep, and sampled keeps the
	// stage clocks' last sample of each kind of sweep, by way and level
	// (observe.go).
	watch   sweepWatch
	sampled [2][maxLevels]stageSums
	// exchanged is the clock reading that closed the last border exchange
	// while a collector is attached: the window of the folded kernel the
	// exchange leads in opens there, so one reading serves both (comm3).
	exchanged time.Duration
	// band, when nonzero, is the way up's band height in place of
	// bandRows' rule (pipeline.go): tests force the heights it never picks.
	band int
}

// New creates a solver with the paper's default smoother (classes S/W/A)
// and the NPB operator stencils.
func New(env *wl.Env) *Solver {
	return &Solver{
		Env:      env,
		Smoother: stencil.SClassSWA,
		Operator: stencil.A,
		Project:  stencil.P,
		Interp:   stencil.Q,
	}
}

// MGrid is the paper's Fig. 4 top-level function:
//
//	u = genarray(shape(v), 0.0);
//	for (i = 0; i < iter; i += 1) {
//	    r = v - Resid(u);
//	    u = u + VCycle(r);
//	}
//	return u;
//
// v is the extended right-hand-side grid; the returned u is the
// approximate solution of ∇²u = v with periodic boundaries. The caller
// owns both v and the result.
func (s *Solver) MGrid(v *array.Array, iter int) *array.Array {
	e := s.Env
	u := s.newGuess(v)
	for i := 0; i < iter; i++ {
		if s.Cancel != nil && s.Cancel() {
			break
		}
		s.traceIter(i, v)
		if s.foldable(u) && v.Shape()[0] > 2+2 {
			// Folded iteration: the finest V-cycle level is inlined so
			// that u + (z + Smooth(r₂)) becomes a single traversal —
			// one more WITH-loop folding step across the VCycle call
			// boundary — and both of its legs run plane-pipelined
			// (pipeline.go).
			r, rn := s.residProject(v, u)
			zn := s.VCycle(rn)
			e.Release(rn)
			u = s.correct(u, zn, r)
			e.Release(zn)
			e.Release(r)
			continue
		}
		r := s.residSubtract(v, u)
		z := s.VCycle(r)
		e.Release(r)
		u2 := aplib.Add(e, u, z)
		e.Release(z)
		e.Release(u)
		u = u2
	}
	return u
}

// smoothAddInto evaluates u + (z + Smooth(r)) in one folded traversal —
// bitwise the same association as the unfolded Add(u, smoothAdd(z, r)).
func (s *Solver) smoothAddInto(u, z, r *array.Array) *array.Array {
	return s.probe("smooth", r, func() *array.Array {
		rb := s.SetupPeriodicBorder(r)
		out := s.addRelaxPlus(u, z, rb, s.Smoother)
		s.releaseIfCopy(rb, r)
		return out
	})
}

// residSubtract evaluates v − Resid(u). At O3 on cubic grids the
// subtraction folds into the relaxation (WITH-loop folding, see fused.go);
// otherwise the composition is evaluated literally.
func (s *Solver) residSubtract(v, u *array.Array) *array.Array {
	e := s.Env
	if s.foldable(u) {
		return s.probe("resid", u, func() *array.Array {
			ub := s.SetupPeriodicBorder(u)
			out := s.subRelaxObserved(v, ub)
			s.releaseIfCopy(ub, u)
			return out
		})
	}
	au := s.Resid(u)
	r := aplib.Sub(e, v, au)
	e.Release(au)
	return r
}

// smoothAdd evaluates z + Smooth(r), folded at O3 on cubic grids.
func (s *Solver) smoothAdd(z, r *array.Array) *array.Array {
	e := s.Env
	if s.foldable(r) {
		return s.probe("smooth", r, func() *array.Array {
			rb := s.SetupPeriodicBorder(r)
			out := s.addRelax(z, rb, s.Smoother)
			s.releaseIfCopy(rb, r)
			return out
		})
	}
	sm := s.Smooth(r)
	z2 := aplib.Add(e, z, sm)
	e.Release(sm)
	return z2
}

// VCycle is the paper's Fig. 4 recursive V-cycle:
//
//	if (shape(r)[[0]] > 2+2) {
//	    rn = Fine2Coarse(r);  zn = VCycle(rn);  z = Coarse2Fine(zn);
//	    r  = r - Resid(z);    z  = z + Smooth(r);
//	} else {
//	    z = Smooth(r);
//	}
//
// It consumes nothing: the argument r still belongs to the caller.
func (s *Solver) VCycle(r *array.Array) *array.Array {
	e := s.Env
	defer s.traceLevel(r)()
	if r.Shape()[0] > 2+2 {
		rn := s.Fine2Coarse(r)
		zn := s.VCycle(rn)
		e.Release(rn)
		// z = Coarse2Fine(zn); r₂ = r − Resid(z); z + Smooth(r₂) — as
		// three calls, or at O3 as one plane-pipelined sweep.
		z := s.correct(nil, zn, r)
		e.Release(zn)
		return z
	}
	return s.Smooth(r)
}

// Resid applies the residual operator A to u (paper Fig. 6):
//
//	u = SetupPeriodicBorder(u);  u = RelaxKernel(u, A);
//
// The result is A·u on the interior with zero boundary. u's interior is
// untouched (only its dead boundary planes may be refreshed in place).
func (s *Solver) Resid(u *array.Array) *array.Array {
	return s.probe("resid", u, func() *array.Array {
		ub := s.SetupPeriodicBorder(u)
		out := stencil.Relax(s.Env, ub, s.Operator)
		s.releaseIfCopy(ub, u)
		return out
	})
}

// Smooth applies the smoothing operator S to r (paper Fig. 6). At O3 on
// cubic grids — VCycle's coarsest level — it is the folded z + S·r over a
// zero z, so the one plane kernel computes it.
func (s *Solver) Smooth(r *array.Array) *array.Array {
	return s.probe("smooth", r, func() *array.Array {
		e := s.Env
		rb := s.SetupPeriodicBorder(r)
		var out *array.Array
		if s.foldable(r) {
			z := e.NewArray(r.Shape())
			out = s.addRelax(z, rb, s.Smoother)
			e.Release(z)
		} else {
			out = stencil.Relax(e, rb, s.Smoother)
		}
		s.releaseIfCopy(rb, r)
		return out
	})
}

// Fine2Coarse maps a fine grid to the next coarser one (paper Fig. 7):
//
//	rs = SetupPeriodicBorder(r);
//	rr = RelaxKernel(rs, P);
//	rc = condense(2, rr);
//	rn = embed(shape(rc)+1, 0*shape(rc), rc);
//
// The P relaxation averages the fine grid; condense keeps every second
// element; embed pads the missing boundary element back (Fig. 8).
func (s *Solver) Fine2Coarse(r *array.Array) *array.Array {
	return s.probe("fine2coarse", r, func() *array.Array {
		e := s.Env
		rs := s.SetupPeriodicBorder(r)
		if s.foldable(r) {
			// Folded: relax ∘ condense ∘ embed in one traversal of the
			// surviving points (fused.go).
			rn := s.projectCondense(rs, s.Project)
			s.releaseIfCopy(rs, r)
			return rn
		}
		rr := stencil.Relax(e, rs, s.Project)
		s.releaseIfCopy(rs, r)
		rc := aplib.Condense(e, 2, rr)
		e.Release(rr)
		rn := aplib.Embed(e, shape.Shape(shape.AddScalar([]int(rc.Shape()), 1)),
			shape.Zeros(rc.Dim()), rc)
		e.Release(rc)
		return rn
	})
}

// Coarse2Fine maps a coarse grid to the next finer one (paper Fig. 7):
//
//	rp = SetupPeriodicBorder(rn);
//	rs = scatter(2, rp);
//	rt = take(shape(rs)-2, rs);
//	r  = RelaxKernel(rt, Q);
//
// Scatter spreads the coarse values over every second fine position (with
// zeros in between); take trims the two superfluous trailing elements per
// axis (Fig. 9); the Q relaxation fills the gaps by (bi/tri)linear
// interpolation.
func (s *Solver) Coarse2Fine(rn *array.Array) *array.Array {
	return s.probe("coarse2fine", rn, func() *array.Array {
		e := s.Env
		rp := s.SetupPeriodicBorder(rn)
		if s.foldable(rn) {
			// Folded: scatter ∘ take ∘ relax as direct trilinear
			// interpolation (fused.go).
			out := s.interpolate(rp, s.Interp)
			s.releaseIfCopy(rp, rn)
			return out
		}
		rs := aplib.Scatter(e, 2, rp)
		s.releaseIfCopy(rp, rn)
		rt := aplib.Take(e, shape.Shape(shape.AddScalar([]int(rs.Shape()), -2)), rs)
		e.Release(rs)
		out := stencil.Relax(e, rt, s.Interp)
		e.Release(rt)
		return out
	})
}

// releaseIfCopy releases derived when SetupPeriodicBorder produced a fresh
// array rather than updating orig in place.
func (s *Solver) releaseIfCopy(derived, orig *array.Array) {
	if derived != orig {
		s.Env.Release(derived)
	}
}

// SetupPeriodicBorder initialises the artificial boundary elements of an
// extended grid from the opposite interior planes (paper Fig. 5): along
// every axis (last to first), plane 0 receives plane m−2 and plane m−1
// receives plane 1. It is expressed as a chain of 2·rank modarray
// WITH-loops; at optimization level O2+ the chain folds into an in-place
// update of the argument (which is then returned). The result is
// element-wise identical either way.
func (s *Solver) SetupPeriodicBorder(a *array.Array) *array.Array {
	rank := a.Dim()
	if rank < 1 {
		panic(fmt.Sprintf("core: SetupPeriodicBorder on rank-%d array", rank))
	}
	e := s.Env
	if e.Opt >= wl.O3 && rank == 3 {
		// Folded: the chain of six plane modarrays collapses into one
		// in-place border exchange (identical result; the equality with
		// the WITH-loop chain is asserted by the package tests).
		s.comm3(a)
		return a
	}
	cur := a
	for axis := rank - 1; axis >= 0; axis-- {
		m := cur.Shape()[axis]
		for _, side := range [2]struct{ dst, src int }{{0, m - 2}, {m - 1, 1}} {
			g := planeGenerator(cur.Shape(), axis, side.dst)
			from := cur // the array the body reads (fixed per step)
			src := side.src
			axis := axis
			f := func(iv shape.Index) float64 {
				saved := iv[axis]
				iv[axis] = src
				v := from.At(iv)
				iv[axis] = saved
				return v
			}
			switch {
			case e.Opt >= wl.O2:
				cur = e.ModarrayReuse(cur, g, f) // in place; cur stays == a
			case cur == a:
				cur = e.Modarray(a, g, f) // first step copies; a preserved
			default:
				next := e.Modarray(cur, g, f)
				e.Release(cur)
				cur = next
			}
		}
	}
	return cur
}

// planeGenerator builds the generator selecting the full cross-section
// plane iv[axis] == pos.
func planeGenerator(shp shape.Shape, axis, pos int) wl.Generator {
	lower := shape.Zeros(shp.Rank())
	upper := append([]int(nil), shp...)
	lower[axis] = pos
	upper[axis] = pos + 1
	return wl.Gen(lower, upper)
}

// --- NAS benchmark driver -------------------------------------------------------

var _ nas.Benchmark = (*Benchmark)(nil)

// Benchmark runs the NPB MG benchmark with the SAC-style solver.
type Benchmark struct {
	// Class is the NPB size class.
	Class nas.Class
	// Solver executes the algorithm; its smoother is set from Class.
	Solver *Solver
	// Seed selects the zran3 charge stream; 0 means the official NPB
	// seed. Non-default seeds define alternative deterministic problems
	// (no published verification constant applies to them).
	Seed uint64

	v, u *array.Array
}

// NewBenchmark builds a benchmark instance in the given environment.
func NewBenchmark(class nas.Class, env *wl.Env) *Benchmark {
	s := New(env)
	s.Smoother = class.SmootherCoeffs()
	return &Benchmark{Class: class, Solver: s}
}

// Reset builds the initial state: the zran3 right-hand side (identical to
// the other implementations) and no solution yet.
func (b *Benchmark) Reset() {
	e := b.Solver.Env
	if b.v == nil {
		// Dirty: zran3 writes every point, the zeros included.
		b.v = e.NewArrayDirty(b.Class.ExtShape(b.Class.LT()))
	}
	seed := b.Seed
	if seed == 0 {
		seed = nasrand.DefaultSeed
	}
	nas.Zran3Seeded(b.v, b.Class.N, seed)
	if b.u != nil {
		e.Release(b.u)
		b.u = nil
	}
}

// Run executes Reset followed by Solve — the full benchmark.
func (b *Benchmark) Run() (rnm2, rnmu float64) {
	b.Reset()
	return b.Solve()
}

// Solve executes the timed section on the state prepared by Reset:
// Class.Iter full MGrid iterations followed by a final residual
// evaluation, returning the NPB norms. It is the exact counterpart of
// f77's resid + nit×(mg3P + resid): MGrid folds the leading residual
// computation of each iteration into its loop, so one extra residual at
// the end closes the telescope. Timing Solve alone matches the NPB rule
// that "timing is restricted to multigrid iterations and ignores startup
// overhead" (paper §5).
func (b *Benchmark) Solve() (rnm2, rnmu float64) {
	e := b.Solver.Env
	if b.u != nil {
		e.Release(b.u)
	}
	if e.Observing() {
		return b.observedSolve()
	}
	b.u = b.Solver.MGrid(b.v, b.Class.Iter)
	return b.Solver.ResidNorm(b.v, b.u, b.Class.N)
}

// U returns the solution grid of the last Run (nil before the first Run).
func (b *Benchmark) U() *array.Array { return b.u }

// V returns the right-hand side grid (nil before the first Reset).
func (b *Benchmark) V() *array.Array { return b.v }
