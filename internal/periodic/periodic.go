// Package periodic implements the paper's first item of future work (§7):
//
//	"A direct implementation of relaxation with periodic boundary
//	conditions that makes artificial boundary elements obsolete is most
//	desirable. On the one hand, it saves the overhead associated with
//	updating these additional elements. On the other hand, it allows for
//	a benchmark implementation that is even closer to the mathematical
//	specification as the existing one."
//
// Grids here are compact: a problem of interior size n³ lives in an n³
// array, and neighbour accesses wrap around the torus instead of reading
// replicated boundary planes. There is no SetupPeriodicBorder, no
// condense/embed adjustment and no take trimming — the V-cycle operations
// map between n³ and (n/2)³ directly, exactly as in the paper's
// mathematical specification (Fig. 2).
//
// # Correspondence with the extended-grid implementation
//
// A compact grid g corresponds to the interior of an extended grid G via
// g[i] = G[i+1]. The four operators are internal/core's plane kernels in
// their compact mode (core.CompactSweep): the planes of G a stencil
// reaches exist only in a three-plane ring, wrapped from g as they are
// needed, so every value is the one the extended kernel computes and the
// two implementations are bit-identical under every kernel backend and
// worker count (asserted by tests). This one also passes the official NPB
// verification.
//
// Note the index shift between the hierarchies: extended coarse interior
// point jc sits under extended fine point 2·jc, so in compact coordinates
// coarse point c lies under fine point 2·c+1 — the coarse anchors are the
// odd compact positions.
package periodic

import (
	"fmt"
	"math"
	"time"

	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/nas"
	"repro/internal/shape"
	"repro/internal/stencil"
	wl "repro/internal/withloop"
)

// Solver is the border-free MG solver. Rank-3 compact grids only (this is
// the specialised future-work variant; the rank-generic solver is
// internal/core).
type Solver struct {
	// Env supplies scheduling, the memory pool and the kernel variant. The
	// optimization level is ignored: this package is by construction the
	// fully folded form.
	Env *wl.Env
	// Smoother, Operator, Project and Interp are the stencil coefficient
	// sets, defaulting to the NPB vectors.
	Smoother, Operator, Project, Interp stencil.Coeffs
	// Probe, when non-nil, receives per-operation timings.
	Probe nas.Probe
}

// New creates a solver with the NPB stencils and the S/W/A smoother.
func New(env *wl.Env) *Solver {
	return &Solver{
		Env:      env,
		Smoother: stencil.SClassSWA,
		Operator: stencil.A,
		Project:  stencil.P,
		Interp:   stencil.Q,
	}
}

func (s *Solver) probe(region string, level int, f func() *array.Array) *array.Array {
	if s.Probe == nil {
		return f()
	}
	start := time.Now()
	out := f()
	s.Probe(region, level, time.Since(start))
	return out
}

func levelOf(a *array.Array) int {
	n := a.Shape()[0]
	l := 0
	for ; n > 1; n >>= 1 {
		l++
	}
	return l
}

func checkCompact(op string, a *array.Array) int {
	shp := a.Shape()
	if shp.Rank() != 3 || shp[0] != shp[1] || shp[0] != shp[2] {
		panic(fmt.Sprintf("periodic: %s requires a cubic rank-3 grid, got %v", op, shp))
	}
	n := shp[0]
	if n < 2 || n&(n-1) != 0 {
		panic(fmt.Sprintf("periodic: %s requires a power-of-two extent, got %d", op, n))
	}
	return n
}

// MGrid is the paper's Fig. 4 driver on compact grids:
//
//	u = 0;  iter × { r = v − A·u;  u = u + VCycle(r) }
func (s *Solver) MGrid(v *array.Array, iter int) *array.Array {
	checkCompact("MGrid", v)
	e := s.Env
	u := e.NewArray(v.Shape())
	for i := 0; i < iter; i++ {
		r := s.ResidSubtract(v, u)
		z := s.VCycle(r)
		e.Release(r)
		u2 := s.add(u, z)
		e.Release(z)
		e.Release(u)
		u = u2
	}
	return u
}

// VCycle recurses down to the 2³ grid, exactly like Fig. 4 — but the
// termination condition reads shape > 2, not 2+2: no artificial borders.
func (s *Solver) VCycle(r *array.Array) *array.Array {
	e := s.Env
	if r.Shape()[0] > 2 {
		rn := s.Fine2Coarse(r)
		zn := s.VCycle(rn)
		e.Release(rn)
		z := s.Coarse2Fine(zn)
		e.Release(zn)
		r2 := s.ResidSubtract(r, z)
		z2 := s.SmoothAdd(z, r2)
		e.Release(r2)
		e.Release(z)
		return z2
	}
	return s.SmoothAdd(nil, r)
}

// add returns u + z element-wise (the MGrid correction step).
func (s *Solver) add(u, z *array.Array) *array.Array {
	out := s.Env.NewArrayDirty(u.Shape())
	od, ud, zd := out.Data(), u.Data(), z.Data()
	for i := range od {
		od[i] = ud[i] + zd[i]
	}
	return out
}

// ResidSubtract computes v − A·u with wrapped neighbour accesses —
// the Resid of Fig. 6 fused with the subtraction, without any border
// preparation.
func (s *Solver) ResidSubtract(v, u *array.Array) *array.Array {
	checkCompact("ResidSubtract", u)
	return s.probe("resid", levelOf(u), func() *array.Array {
		out := s.Env.NewArrayDirty(u.Shape())
		core.CompactSweep(s.Env, "subRelax", out, v, u, s.Operator)
		return out
	})
}

// SmoothAdd computes z + S·r (or just S·r when z is nil — the coarsest
// level of Fig. 4, z = Smooth(r)).
func (s *Solver) SmoothAdd(z, r *array.Array) *array.Array {
	checkCompact("SmoothAdd", r)
	return s.probe("smooth", levelOf(r), func() *array.Array {
		out := s.Env.NewArrayDirty(r.Shape())
		core.CompactSweep(s.Env, "addRelax", out, z, r, s.Smoother)
		return out
	})
}

// Fine2Coarse restricts r (n³) to the next coarser grid ((n/2)³): the P
// stencil evaluated at the odd compact positions (the coarse anchors; see
// the package comment on the index shift).
func (s *Solver) Fine2Coarse(r *array.Array) *array.Array {
	n := checkCompact("Fine2Coarse", r)
	return s.probe("fine2coarse", levelOf(r), func() *array.Array {
		out := s.Env.NewArrayDirty(shape.Of(n/2, n/2, n/2))
		core.CompactSweep(s.Env, "projectCondense", out, nil, r, s.Project)
		return out
	})
}

// Coarse2Fine interpolates zn ((n/2)³) to the next finer grid (n³):
// trilinear interpolation with the coarse anchors at odd fine positions.
func (s *Solver) Coarse2Fine(zn *array.Array) *array.Array {
	nc := checkCompact("Coarse2Fine", zn)
	return s.probe("coarse2fine", levelOf(zn)+1, func() *array.Array {
		out := s.Env.NewArrayDirty(shape.Of(2*nc, 2*nc, 2*nc))
		core.CompactSweep(s.Env, "interpolate", out, nil, zn, s.Interp)
		return out
	})
}

// --- NAS benchmark driver --------------------------------------------------------

var _ nas.Benchmark = (*Benchmark)(nil)

// Benchmark runs the NPB MG benchmark on compact grids.
type Benchmark struct {
	Class  nas.Class
	Solver *Solver
	v, u   *array.Array
}

// NewBenchmark creates a compact-grid benchmark instance.
func NewBenchmark(class nas.Class, env *wl.Env) *Benchmark {
	s := New(env)
	s.Smoother = class.SmootherCoeffs()
	return &Benchmark{Class: class, Solver: s}
}

// Reset builds the zran3 right-hand side, compacted from the extended
// form so the charges are placed identically to the other implementations.
func (b *Benchmark) Reset() {
	e := b.Solver.Env
	n := b.Class.N
	ext := array.New(b.Class.ExtShape(b.Class.LT()))
	nas.Zran3(ext, n)
	if b.v == nil {
		b.v = e.NewArray(shape.Of(n, n, n))
	}
	vd, ed := b.v.Data(), ext.Data()
	m := n + 2
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			copy(vd[(i*n+j)*n:(i*n+j)*n+n], ed[((i+1)*m+j+1)*m+1:((i+1)*m+j+1)*m+1+n])
		}
	}
	if b.u != nil {
		e.Release(b.u)
		b.u = nil
	}
}

// Solve executes the timed section and returns the NPB norms.
func (b *Benchmark) Solve() (rnm2, rnmu float64) {
	e := b.Solver.Env
	if b.u != nil {
		e.Release(b.u)
	}
	b.u = b.Solver.MGrid(b.v, b.Class.Iter)
	r := b.Solver.ResidSubtract(b.v, b.u)
	rnm2, rnmu = norms(r)
	e.Release(r)
	return rnm2, rnmu
}

// Run executes Reset followed by Solve.
func (b *Benchmark) Run() (rnm2, rnmu float64) {
	b.Reset()
	return b.Solve()
}

// U returns the compact solution grid of the last Solve.
func (b *Benchmark) U() *array.Array { return b.u }

// V returns the compact right-hand side.
func (b *Benchmark) V() *array.Array { return b.v }

// norms computes the NPB norms over a compact grid (every element is
// interior). The sum of squares folds in the canonical row→plane order of
// nas.Norm2u3Planes so that the compact result stays bit-identical to the
// extended-grid core path, whose fused resid+norm kernel accumulates in
// exactly that association.
func norms(r *array.Array) (rnm2, rnmu float64) {
	shp := r.Shape()
	n0, n1, n2 := shp[0], shp[1], shp[2]
	d := r.Data()
	sum, maxAbs := 0.0, 0.0
	for i := 0; i < n0; i++ {
		var planeSum float64
		for j := 0; j < n1; j++ {
			base := (i*n1 + j) * n2
			var rowSum float64
			rowSum, maxAbs = nas.SumSquares(d[base:base+n2], maxAbs)
			planeSum += rowSum
		}
		sum += planeSum
	}
	n := float64(r.Size())
	return math.Sqrt(sum / n), maxAbs
}
