package f77

import (
	"math"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/nas"
	"repro/internal/sched"
	"repro/internal/shape"
	"repro/internal/stencil"
	wl "repro/internal/withloop"
)

// TestVerifyClassS is the repository's primary oracle: the port must
// reproduce the official NPB verification norm for class S.
func TestVerifyClassS(t *testing.T) {
	s := New(nas.ClassS)
	rnm2, _ := s.Run()
	want, official, ok := nas.ClassS.VerifyValue()
	if !ok || !official {
		t.Fatal("class S lost its official verification value")
	}
	if math.Abs(rnm2-want) > nas.Epsilon {
		t.Fatalf("class S rnm2 = %.13e, want %.13e ± %g", rnm2, want, nas.Epsilon)
	}
	// The agreement is much tighter than the NPB tolerance: 12+ digits.
	if rel := math.Abs(rnm2-want) / want; rel > 1e-11 {
		t.Fatalf("class S relative error %.3e, expected < 1e-11", rel)
	}
	if verified, ok := nas.ClassS.Verify(rnm2); !ok || !verified {
		t.Fatal("Verify() rejected the computed norm")
	}
}

// TestVerifyClassW checks the NPB 2.3-specific 64³/40-iteration class.
func TestVerifyClassW(t *testing.T) {
	if testing.Short() {
		t.Skip("class W takes ~0.3s; skipped in -short")
	}
	s := New(nas.ClassW)
	rnm2, _ := s.Run()
	if verified, ok := nas.ClassW.Verify(rnm2); !ok || !verified {
		want, _, _ := nas.ClassW.VerifyValue()
		t.Fatalf("class W rnm2 = %.13e, want %.13e", rnm2, want)
	}
}

// TestVerifyClassA runs the paper's large size class (≈4s).
func TestVerifyClassA(t *testing.T) {
	if testing.Short() {
		t.Skip("class A takes ~4s; skipped in -short")
	}
	s := New(nas.ClassA)
	rnm2, _ := s.Run()
	if verified, ok := nas.ClassA.Verify(rnm2); !ok || !verified {
		want, _, _ := nas.ClassA.VerifyValue()
		t.Fatalf("class A rnm2 = %.13e, want %.13e", rnm2, want)
	}
}

// Every parallel mode and worker count must produce bit-identical results.
func TestParallelModesBitIdentical(t *testing.T) {
	ref := New(nas.ClassS)
	refNorm, _ := ref.Run()
	for _, mode := range []Mode{AutoPar, FullPar} {
		for _, workers := range []int{2, 4} {
			pool := sched.NewPool(workers)
			s := NewParallel(nas.ClassS, pool, mode)
			rnm2, _ := s.Run()
			pool.Close()
			if rnm2 != refNorm {
				t.Fatalf("mode %v workers %d: rnm2 = %.17e, serial %.17e (not bitwise equal)",
					mode, workers, rnm2, refNorm)
			}
			if !s.U().Equal(ref.U()) {
				t.Fatalf("mode %v workers %d: solution grids differ", mode, workers)
			}
		}
	}
}

func TestModeString(t *testing.T) {
	if Serial.String() != "serial" || AutoPar.String() != "autopar" || FullPar.String() != "fullpar" {
		t.Fatal("Mode.String wrong")
	}
	if Mode(99).String() != "Mode(?)" {
		t.Fatal("unknown mode String wrong")
	}
}

// The residual must shrink monotonically (and roughly geometrically)
// across V-cycle iterations — the convergence the multigrid method exists
// to deliver.
func TestResidualConvergence(t *testing.T) {
	s := New(nas.ClassS)
	s.Reset()
	s.EvalResid()
	prev, _ := s.Norms()
	for it := 0; it < 4; it++ {
		s.MG3P()
		s.EvalResid()
		cur, _ := s.Norms()
		if cur >= prev {
			t.Fatalf("iteration %d: rnm2 %e did not decrease from %e", it, cur, prev)
		}
		if cur > prev*0.5 {
			t.Fatalf("iteration %d: contraction factor %f too weak for multigrid", it, cur/prev)
		}
		prev = cur
	}
}

// resid computes v − A·u: with u = 0 the result is v itself (plus comm3).
func TestResidWithZeroU(t *testing.T) {
	s := New(nas.ClassS)
	s.Reset()
	s.EvalResid()
	n := nas.ClassS.N
	for i3 := 1; i3 <= n; i3 += 7 {
		for i2 := 1; i2 <= n; i2 += 7 {
			for i1 := 1; i1 <= n; i1 += 7 {
				if s.r[s.lt].At3(i3, i2, i1) != s.v.At3(i3, i2, i1) {
					t.Fatalf("r != v at (%d,%d,%d) with u=0", i3, i2, i1)
				}
			}
		}
	}
}

// The f77 resid kernel must agree with the generic WITH-loop stencil
// library: r = v − A·u where A is stencil.A, after identical border setup.
func TestResidMatchesStencilLibrary(t *testing.T) {
	n := 8
	m := n + 2
	// Random-ish u and v with periodic borders.
	u := array.New(shape.Of(m, m, m))
	v := array.New(shape.Of(m, m, m))
	for i := range u.Data() {
		u.Data()[i] = math.Sin(float64(i) * 0.7)
		v.Data()[i] = math.Cos(float64(i) * 0.3)
	}
	nas.Comm3(u)
	nas.Comm3(v)

	s := New(nas.Class{Name: 'S', N: n, Iter: 1})
	r := array.New(shape.Of(m, m, m))
	s.resid(u, v, r)

	e := wl.Default()
	au := stencil.Relax(e, u, stencil.A)
	for i3 := 1; i3 <= n; i3++ {
		for i2 := 1; i2 <= n; i2++ {
			for i1 := 1; i1 <= n; i1++ {
				want := v.At3(i3, i2, i1) - au.At3(i3, i2, i1)
				if d := math.Abs(r.At3(i3, i2, i1) - want); d > 1e-13 {
					t.Fatalf("resid differs from library stencil at (%d,%d,%d): %g vs %g",
						i3, i2, i1, r.At3(i3, i2, i1), want)
				}
			}
		}
	}
}

// psinv adds S·r to u; check against the stencil library.
func TestPsinvMatchesStencilLibrary(t *testing.T) {
	n := 8
	m := n + 2
	r := array.New(shape.Of(m, m, m))
	for i := range r.Data() {
		r.Data()[i] = math.Sin(float64(i) * 1.3)
	}
	nas.Comm3(r)
	u := array.New(shape.Of(m, m, m))

	s := New(nas.Class{Name: 'S', N: n, Iter: 1})
	s.psinv(r, u)

	e := wl.Default()
	sr := stencil.Relax(e, r, stencil.SClassSWA)
	for i3 := 1; i3 <= n; i3++ {
		for i2 := 1; i2 <= n; i2++ {
			for i1 := 1; i1 <= n; i1++ {
				if d := math.Abs(u.At3(i3, i2, i1) - sr.At3(i3, i2, i1)); d > 1e-14 {
					t.Fatalf("psinv differs from library stencil at (%d,%d,%d)", i3, i2, i1)
				}
			}
		}
	}
}

// rprj3 is the P stencil evaluated at even fine points: cross-check one
// coarse element against the stencil library composed with condensation.
func TestRprj3MatchesStencilLibrary(t *testing.T) {
	n := 8
	m := n + 2
	rf := array.New(shape.Of(m, m, m))
	for i := range rf.Data() {
		rf.Data()[i] = math.Sin(float64(i) * 0.9)
	}
	nas.Comm3(rf)
	s := New(nas.Class{Name: 'S', N: n, Iter: 1})
	rc := array.New(shape.Of(n/2+2, n/2+2, n/2+2))
	s.rprj3(rf, rc)

	e := wl.Default()
	pr := stencil.Relax(e, rf, stencil.P)
	for j3 := 1; j3 <= n/2; j3++ {
		for j2 := 1; j2 <= n/2; j2++ {
			for j1 := 1; j1 <= n/2; j1++ {
				want := pr.At3(2*j3, 2*j2, 2*j1)
				if d := math.Abs(rc.At3(j3, j2, j1) - want); d > 1e-13 {
					t.Fatalf("rprj3 differs from P stencil at coarse (%d,%d,%d): %g vs %g",
						j3, j2, j1, rc.At3(j3, j2, j1), want)
				}
			}
		}
	}
}

// interp is trilinear prolongation: even fine points receive the coarse
// value exactly, odd points averages — cross-check against the Q stencil
// on a scattered grid.
func TestInterpMatchesStencilLibrary(t *testing.T) {
	nc := 4
	mc := nc + 2
	nf := 2 * nc
	mf := nf + 2
	z := array.New(shape.Of(mc, mc, mc))
	for i := range z.Data() {
		z.Data()[i] = math.Cos(float64(i) * 0.45)
	}
	nas.Comm3(z)
	s := New(nas.Class{Name: 'S', N: nf, Iter: 1})
	u := array.New(shape.Of(mf, mf, mf))
	s.interp(z, u)

	// Build the same thing with scatter + Q relax (the SAC formulation).
	e := wl.Default()
	zs := array.New(shape.Of(2*mc, 2*mc, 2*mc))
	for c3 := 0; c3 < mc; c3++ {
		for c2 := 0; c2 < mc; c2++ {
			for c1 := 0; c1 < mc; c1++ {
				zs.Set3(2*c3, 2*c2, 2*c1, z.At3(c3, c2, c1))
			}
		}
	}
	zt := array.New(shape.Of(mf, mf, mf))
	for i3 := 0; i3 < mf; i3++ {
		for i2 := 0; i2 < mf; i2++ {
			for i1 := 0; i1 < mf; i1++ {
				zt.Set3(i3, i2, i1, zs.At3(i3, i2, i1))
			}
		}
	}
	q := stencil.Relax(e, zt, stencil.Q)
	for i3 := 1; i3 <= nf; i3++ {
		for i2 := 1; i2 <= nf; i2++ {
			for i1 := 1; i1 <= nf; i1++ {
				if d := math.Abs(u.At3(i3, i2, i1) - q.At3(i3, i2, i1)); d > 1e-13 {
					t.Fatalf("interp differs from Q∘scatter at (%d,%d,%d): %g vs %g",
						i3, i2, i1, u.At3(i3, i2, i1), q.At3(i3, i2, i1))
				}
			}
		}
	}
}

// Probing must observe every kernel of a V-cycle with plausible structure.
func TestProbeCoverage(t *testing.T) {
	s := New(nas.ClassS)
	counts := map[string]int{}
	s.Probe = func(region string, level int, _ time.Duration) {
		counts[region]++
		if level < 1 || level > s.lt {
			t.Errorf("probe level %d out of range", level)
		}
	}
	s.Reset()
	s.EvalResid()
	s.MG3P()
	lt := s.lt
	want := map[string]int{
		"rprj3":  lt - 1,
		"psinv":  lt,
		"interp": lt - 1,
		"resid":  1 + (lt - 1), // EvalResid + per-level resids of the up-cycle
	}
	for region, n := range want {
		if counts[region] != n {
			t.Errorf("probe %s count = %d, want %d (all: %v)", region, counts[region], n, counts)
		}
	}
}

// The benchmark is repeatable: two full runs give identical norms.
func TestRunDeterministic(t *testing.T) {
	s := New(nas.ClassS)
	a, _ := s.Run()
	b, _ := s.Run()
	if a != b {
		t.Fatalf("two runs differ: %v vs %v", a, b)
	}
}

func BenchmarkClassSIteration(b *testing.B) {
	s := New(nas.ClassS)
	s.Reset()
	s.EvalResid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MG3P()
		s.EvalResid()
	}
}
