// Package f77 is a faithful Go port of the serial Fortran-77 reference
// implementation of NAS-MG (NPB 2.3, mg.f) — the baseline the paper
// measures SAC against in Figs. 11–13.
//
// Everything that makes the Fortran code fast is preserved:
//
//   - a static grid hierarchy allocated once (u, r at every level, v at the
//     finest) — "a static memory layout in a low-level Fortran-77
//     implementation" (paper, §5);
//   - the hand-optimized stencil kernels resid and psinv that share
//     partial sums between neighbouring elements through the line buffers
//     u1/u2 (r1/r2), reducing the 27-point stencil to 4 multiplications
//     and 12–20 additions per element;
//   - the restriction (rprj3) and prolongation (interp) kernels with
//     their x1/y1 and z1/z2/z3 buffers;
//   - the benchmark driver: r = v − Au, then nit iterations of
//     mg3P (one V-cycle) followed by resid, then norm2u3 → verification.
//
// Loop structures and floating-point evaluation order follow mg.f
// statement by statement (with Fortran's contiguous first index mapped to
// Go's contiguous last index), so the port reproduces the official
// verification norms bit-for-bit within the NPB tolerance.
//
// The solver can also run its resid/psinv loop nests on a worker pool.
// Mode AutoPar parallelizes only those two kernels — modelling the SUN f77
// auto-parallelizer of the paper, which handles the clean, dependence-free
// outer DO loops of resid/psinv but not the strided index expressions and
// reused line buffers of rprj3/interp. Mode FullPar parallelizes all four
// kernels (what a directive-based approach achieves). Results are
// bit-identical in every mode and for every worker count.
package f77

import (
	"time"

	"repro/internal/array"
	"repro/internal/nas"
	"repro/internal/nasrand"
	"repro/internal/sched"
	"repro/internal/stencil"
)

var _ nas.Benchmark = (*Solver)(nil)

// Mode selects which loop nests run on the worker pool.
type Mode int

const (
	// Serial executes everything inline.
	Serial Mode = iota
	// AutoPar parallelizes resid and psinv only — the conservative
	// auto-parallelizer of the paper's Fig. 12 Fortran curves.
	AutoPar
	// FullPar parallelizes resid, psinv, rprj3 and interp.
	FullPar
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Serial:
		return "serial"
	case AutoPar:
		return "autopar"
	case FullPar:
		return "fullpar"
	default:
		return "Mode(?)"
	}
}

// Solver is one NPB-MG problem instance with its static grid hierarchy.
type Solver struct {
	// Class is the problem size class.
	Class nas.Class
	// Probe, when non-nil, is called with the duration of every kernel
	// invocation — the measurement hook of the SMP cost model
	// (internal/smp). Probing is only meaningful in Serial mode.
	Probe nas.Probe
	// Seed selects the zran3 charge stream; 0 means the official NPB
	// seed (the verification constants apply only to that one).
	Seed uint64
	// Cancel, when non-nil, is polled once at the top of every Solve
	// iteration; true abandons the remaining iterations (as
	// core.Solver.Cancel does).
	Cancel func() bool

	lt   int
	u, r []*array.Array // levels 1..lt (index 0 unused)
	v    *array.Array   // finest level right-hand side
	a, c stencil.Coeffs

	pool *sched.Pool
	mode Mode
	// Line buffers for the serial path (worker 0); parallel workers
	// allocate their own.
	buf1, buf2, buf3 []float64
}

// New creates a serial solver for the given class.
func New(class nas.Class) *Solver { return NewParallel(class, nil, Serial) }

// NewParallel creates a solver that runs the selected loop nests on pool.
// A nil pool means serial regardless of mode.
func NewParallel(class nas.Class, pool *sched.Pool, mode Mode) *Solver {
	lt := class.LT()
	s := &Solver{
		Class: class,
		lt:    lt,
		u:     make([]*array.Array, lt+1),
		r:     make([]*array.Array, lt+1),
		a:     stencil.A,
		c:     class.SmootherCoeffs(),
		pool:  pool,
		mode:  mode,
	}
	for k := 1; k <= lt; k++ {
		s.u[k] = array.New(class.ExtShape(k))
		s.r[k] = array.New(class.ExtShape(k))
	}
	s.v = array.New(class.ExtShape(lt))
	m := class.ExtShape(lt)[0]
	s.buf1 = make([]float64, m)
	s.buf2 = make([]float64, m)
	s.buf3 = make([]float64, m)
	return s
}

// Levels returns the number of grid levels (log2 of the interior extent).
func (s *Solver) Levels() int { return s.lt }

// U returns the solution grid at the finest level (extended form).
func (s *Solver) U() *array.Array { return s.u[s.lt] }

// V returns the right-hand side at the finest level (extended form).
func (s *Solver) V() *array.Array { return s.v }

// R returns the residual grid at the finest level (extended form).
func (s *Solver) R() *array.Array { return s.r[s.lt] }

// Reset restores the benchmark's initial state: u = 0 everywhere and
// v = zran3 charges (deterministic).
func (s *Solver) Reset() {
	for k := 1; k <= s.lt; k++ {
		s.u[k].Zero()
		s.r[k].Zero()
	}
	seed := s.Seed
	if seed == 0 {
		seed = nasrand.DefaultSeed
	}
	nas.Zran3Seeded(s.v, s.Class.N, seed)
}

// probe measures one kernel invocation.
func (s *Solver) probe(region string, level int, f func()) {
	if s.Probe == nil {
		f()
		return
	}
	start := time.Now()
	f()
	s.Probe(region, level, time.Since(start))
}

// parallel reports whether a kernel region runs on the pool in the
// configured mode.
func (s *Solver) parallel(region string) bool {
	if s.pool == nil || s.pool.Workers() == 1 {
		return false
	}
	switch s.mode {
	case FullPar:
		return true
	case AutoPar:
		return region == "resid" || region == "psinv"
	default:
		return false
	}
}

// pFor runs body over [0, n) — on the pool when the region is
// parallelized, inline otherwise.
func (s *Solver) pFor(region string, n int, body func(lo, hi, worker int)) {
	if s.parallel(region) {
		s.pool.For(n, 0, body)
		return
	}
	body(0, n, 0)
}

// --- kernels (statement-level ports of mg.f) -----------------------------------

// resid computes r = v − A·u on the interior and refreshes r's periodic
// border (mg.f subroutine resid). v and r may alias, as in mg3P's
// intermediate levels.
func (s *Solver) resid(u, v, r *array.Array) {
	m := u.Shape()[0]
	ud, vd, rd := u.Data(), v.Data(), r.Data()
	a0, a2, a3 := s.a[0], s.a[2], s.a[3] // a(1) = 0: term omitted like the original
	s.pFor("resid", m-2, func(lo, hi, worker int) {
		u1, u2 := s.buf1, s.buf2
		if worker != 0 {
			u1 = make([]float64, m)
			u2 = make([]float64, m)
		}
		for i3 := lo + 1; i3 <= hi; i3++ {
			for i2 := 1; i2 < m-1; i2++ {
				zz := (i3*m + i2) * m
				zm := (i3*m + i2 - 1) * m
				zp := (i3*m + i2 + 1) * m
				mz := ((i3-1)*m + i2) * m
				pz := ((i3+1)*m + i2) * m
				mm := ((i3-1)*m + i2 - 1) * m
				mp := ((i3-1)*m + i2 + 1) * m
				pm := ((i3+1)*m + i2 - 1) * m
				pp := ((i3+1)*m + i2 + 1) * m
				for i1 := 0; i1 < m; i1++ {
					u1[i1] = ud[zm+i1] + ud[zp+i1] + ud[mz+i1] + ud[pz+i1]
					u2[i1] = ud[mm+i1] + ud[mp+i1] + ud[pm+i1] + ud[pp+i1]
				}
				for i1 := 1; i1 < m-1; i1++ {
					rd[zz+i1] = vd[zz+i1] -
						a0*ud[zz+i1] -
						a2*(u2[i1]+u1[i1-1]+u1[i1+1]) -
						a3*(u2[i1-1]+u2[i1+1])
				}
			}
		}
	})
	nas.Comm3(r)
}

// psinv computes u = u + S·r on the interior and refreshes u's periodic
// border (mg.f subroutine psinv). The c(3) term is omitted exactly like
// the original, which assumes c(3) = 0 (true for every class).
func (s *Solver) psinv(r, u *array.Array) {
	m := u.Shape()[0]
	rd, ud := r.Data(), u.Data()
	c0, c1, c2 := s.c[0], s.c[1], s.c[2]
	s.pFor("psinv", m-2, func(lo, hi, worker int) {
		r1, r2 := s.buf1, s.buf2
		if worker != 0 {
			r1 = make([]float64, m)
			r2 = make([]float64, m)
		}
		for i3 := lo + 1; i3 <= hi; i3++ {
			for i2 := 1; i2 < m-1; i2++ {
				zz := (i3*m + i2) * m
				zm := (i3*m + i2 - 1) * m
				zp := (i3*m + i2 + 1) * m
				mz := ((i3-1)*m + i2) * m
				pz := ((i3+1)*m + i2) * m
				mm := ((i3-1)*m + i2 - 1) * m
				mp := ((i3-1)*m + i2 + 1) * m
				pm := ((i3+1)*m + i2 - 1) * m
				pp := ((i3+1)*m + i2 + 1) * m
				for i1 := 0; i1 < m; i1++ {
					r1[i1] = rd[zm+i1] + rd[zp+i1] + rd[mz+i1] + rd[pz+i1]
					r2[i1] = rd[mm+i1] + rd[mp+i1] + rd[pm+i1] + rd[pp+i1]
				}
				for i1 := 1; i1 < m-1; i1++ {
					ud[zz+i1] = ud[zz+i1] +
						c0*rd[zz+i1] +
						c1*(rd[zz+i1-1]+rd[zz+i1+1]+r1[i1]) +
						c2*(r2[i1]+r1[i1-1]+r1[i1+1])
				}
			}
		}
	})
	nas.Comm3(u)
}

// rprj3 projects the fine residual rk onto the coarse grid rj with the
// P-operator weights 1/2, 1/4, 1/8, 1/16 (mg.f subroutine rprj3) and
// refreshes rj's periodic border.
func (s *Solver) rprj3(rk, rj *array.Array) {
	mk := rk.Shape()[0]
	mj := rj.Shape()[0]
	rd, sd := rk.Data(), rj.Data()
	s.pFor("rprj3", mj-2, func(lo, hi, worker int) {
		x1, y1 := s.buf1, s.buf2
		if worker != 0 {
			x1 = make([]float64, mk)
			y1 = make([]float64, mk)
		}
		for j3 := lo + 1; j3 <= hi; j3++ {
			i3 := 2 * j3
			for j2 := 1; j2 < mj-1; j2++ {
				i2 := 2 * j2
				zz := (i3*mk + i2) * mk
				zm := (i3*mk + i2 - 1) * mk
				zp := (i3*mk + i2 + 1) * mk
				mz := ((i3-1)*mk + i2) * mk
				pz := ((i3+1)*mk + i2) * mk
				mmr := ((i3-1)*mk + i2 - 1) * mk
				mpr := ((i3-1)*mk + i2 + 1) * mk
				pmr := ((i3+1)*mk + i2 - 1) * mk
				ppr := ((i3+1)*mk + i2 + 1) * mk
				// Buffers at the odd fine positions flanking each coarse
				// centre (Fortran's first inner loop).
				for f := 1; f < mk; f += 2 {
					x1[f] = rd[zm+f] + rd[zp+f] + rd[mz+f] + rd[pz+f]
					y1[f] = rd[mmr+f] + rd[pmr+f] + rd[mpr+f] + rd[ppr+f]
				}
				for j1 := 1; j1 < mj-1; j1++ {
					f := 2 * j1
					y2 := rd[mmr+f] + rd[pmr+f] + rd[mpr+f] + rd[ppr+f]
					x2 := rd[zm+f] + rd[zp+f] + rd[mz+f] + rd[pz+f]
					sd[(j3*mj+j2)*mj+j1] = 0.5*rd[zz+f] +
						0.25*(rd[zz+f-1]+rd[zz+f+1]+x2) +
						0.125*(x1[f-1]+x1[f+1]+y2) +
						0.0625*(y1[f-1]+y1[f+1])
				}
			}
		}
	})
	nas.Comm3(rj)
}

// interp adds the trilinear prolongation of the coarse correction z onto
// the fine grid u (mg.f subroutine interp; weights 1, 1/2, 1/4, 1/8).
// Like the original, it writes the whole extended fine grid, using the
// coarse grid's periodic border, and performs no comm3 of its own.
func (s *Solver) interp(z, u *array.Array) {
	mm := z.Shape()[0]
	n := u.Shape()[0]
	zd, ud := z.Data(), u.Data()
	s.pFor("interp", mm-1, func(lo, hi, worker int) {
		z1, z2, z3 := s.buf1, s.buf2, s.buf3
		if worker != 0 {
			z1 = make([]float64, mm)
			z2 = make([]float64, mm)
			z3 = make([]float64, mm)
		}
		for c3 := lo; c3 < hi; c3++ {
			for c2 := 0; c2 < mm-1; c2++ {
				base := (c3*mm + c2) * mm      // z(·, c2,   c3)
				baseJ := (c3*mm + c2 + 1) * mm // z(·, c2+1, c3)
				baseK := ((c3+1)*mm + c2) * mm // z(·, c2,   c3+1)
				baseJK := ((c3+1)*mm + c2 + 1) * mm
				zB, zJ := zd[base:base+mm], zd[baseJ:baseJ+mm]
				zK, zJK := zd[baseK:baseK+mm], zd[baseJK:baseJK+mm]
				for b := 0; b < mm; b++ {
					z1[b] = zJ[b] + zB[b]
					z2[b] = zK[b] + zB[b]
					z3[b] = zJK[b] + zK[b] + z1[b]
				}
				f00 := (2*c3*n + 2*c2) * n
				f01 := (2*c3*n + 2*c2 + 1) * n
				f10 := ((2*c3+1)*n + 2*c2) * n
				f11 := ((2*c3+1)*n + 2*c2 + 1) * n
				u00, u01 := ud[f00:f00+n], ud[f01:f01+n]
				u10, u11 := ud[f10:f10+n], ud[f11:f11+n]
				for b := 0; b < mm-1; b++ {
					u00[2*b] += zB[b]
					u00[2*b+1] += 0.5 * (zB[b+1] + zB[b])
				}
				for b := 0; b < mm-1; b++ {
					u01[2*b] += 0.5 * z1[b]
					u01[2*b+1] += 0.25 * (z1[b] + z1[b+1])
				}
				for b := 0; b < mm-1; b++ {
					u10[2*b] += 0.5 * z2[b]
					u10[2*b+1] += 0.25 * (z2[b] + z2[b+1])
				}
				for b := 0; b < mm-1; b++ {
					u11[2*b] += 0.25 * z3[b]
					u11[2*b+1] += 0.125 * (z3[b] + z3[b+1])
				}
			}
		}
	})
}

// --- driver ---------------------------------------------------------------------

// MG3P performs one V-cycle (mg.f subroutine mg3P): restrict the residual
// to the coarsest level, smooth there, then interpolate, re-evaluate the
// residual and smooth on each level back up to the finest.
func (s *Solver) MG3P() {
	lt := s.lt
	for k := lt; k >= 2; k-- {
		s.probe("rprj3", k, func() { s.rprj3(s.r[k], s.r[k-1]) })
	}
	s.u[1].Zero()
	s.probe("psinv", 1, func() { s.psinv(s.r[1], s.u[1]) })
	for k := 2; k <= lt-1; k++ {
		k := k
		s.u[k].Zero()
		s.probe("interp", k, func() { s.interp(s.u[k-1], s.u[k]) })
		s.probe("resid", k, func() { s.resid(s.u[k], s.r[k], s.r[k]) })
		s.probe("psinv", k, func() { s.psinv(s.r[k], s.u[k]) })
	}
	s.probe("interp", lt, func() { s.interp(s.u[lt-1], s.u[lt]) })
	s.probe("resid", lt, func() { s.resid(s.u[lt], s.v, s.r[lt]) })
	s.probe("psinv", lt, func() { s.psinv(s.r[lt], s.u[lt]) })
}

// EvalResid recomputes the finest-level residual r = v − A·u — the resid
// call that precedes and follows every mg3P in the benchmark loop.
func (s *Solver) EvalResid() {
	s.probe("resid", s.lt, func() { s.resid(s.u[s.lt], s.v, s.r[s.lt]) })
}

// Norms returns the current residual norms (rnm2 is the verified value).
func (s *Solver) Norms() (rnm2, rnmu float64) {
	return nas.Norm2u3(s.r[s.lt], s.Class.N)
}

// Solve executes the timed section of the NPB rules on the state Reset
// built: the initial resid, then Class.Iter iterations of (mg3P; resid),
// returning the final norms. Cancel is polled at the top of every
// iteration.
func (s *Solver) Solve() (rnm2, rnmu float64) {
	s.EvalResid()
	for it := 0; it < s.Class.Iter; it++ {
		if s.Cancel != nil && s.Cancel() {
			break
		}
		s.MG3P()
		s.EvalResid()
	}
	return s.Norms()
}

// Run executes the complete benchmark: Reset, then Solve.
func (s *Solver) Run() (rnm2, rnmu float64) {
	s.Reset()
	return s.Solve()
}
