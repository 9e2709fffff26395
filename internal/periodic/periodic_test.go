package periodic

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/mgtest"
	"repro/internal/nas"
	"repro/internal/shape"
	wl "repro/internal/withloop"
)

// The future-work variant must pass the official NPB verification, like
// the extended-grid implementations.
func TestVerifyClassS(t *testing.T) {
	b := NewBenchmark(nas.ClassS, wl.Default())
	rnm2, _ := b.Run()
	if verified, ok := nas.ClassS.Verify(rnm2); !ok || !verified {
		want, _, _ := nas.ClassS.VerifyValue()
		t.Fatalf("class S rnm2 = %.13e, want %.13e", rnm2, want)
	}
}

func TestVerifyClassW(t *testing.T) {
	if testing.Short() {
		t.Skip("class W skipped in -short")
	}
	b := NewBenchmark(nas.ClassW, wl.Default())
	rnm2, _ := b.Run()
	if verified, ok := nas.ClassW.Verify(rnm2); !ok || !verified {
		want, _, _ := nas.ClassW.VerifyValue()
		t.Fatalf("class W rnm2 = %.13e, want %.13e", rnm2, want)
	}
}

// The compact solver corresponds exactly to the extended-grid SAC program:
// the final norms agree to the last bit and the solution grids match the
// extended interior element-wise, under every kernel backend and worker
// count (SeqThreshold 0 fans out even the coarsest levels).
func TestMatchesExtendedImplementation(t *testing.T) {
	ext := core.NewBenchmark(nas.ClassS, wl.Default())
	extN2, extNU := ext.Run()
	n := nas.ClassS.N
	for _, variant := range []string{wl.VariantScalar, wl.VariantBuffered, wl.VariantSIMD} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s_w%d", variant, workers), func(t *testing.T) {
				env := wl.Parallel(workers)
				defer env.Close()
				env.Variant = variant
				env.SeqThreshold = 0
				cmp := NewBenchmark(nas.ClassS, env)
				if n2, nu := cmp.Run(); n2 != extN2 || nu != extNU {
					t.Fatalf("compact norms (%.17e, %.17e), extended (%.17e, %.17e) (not bitwise equal)",
						n2, nu, extN2, extNU)
				}
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						for k := 0; k < n; k++ {
							c := cmp.U().At3(i, j, k)
							e := ext.U().At3(i+1, j+1, k+1)
							if c != e {
								t.Fatalf("u differs at (%d,%d,%d): %.17g vs %.17g", i, j, k, c, e)
							}
						}
					}
				}
			})
		}
	}
}

// ResidSubtract equals the extended pipeline's v − A·u on the interior.
func TestResidSubtractMatchesExtended(t *testing.T) {
	n := 8
	env := wl.Default()
	// Build corresponding compact and extended grids.
	uc := array.New(shape.Of(n, n, n))
	vc := array.New(shape.Of(n, n, n))
	for i := range uc.Data() {
		uc.Data()[i] = math.Sin(float64(i) * 0.37)
		vc.Data()[i] = math.Cos(float64(i) * 0.23)
	}
	ue := array.New(shape.Of(n+2, n+2, n+2))
	ve := array.New(shape.Of(n+2, n+2, n+2))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				ue.Set3(i+1, j+1, k+1, uc.At3(i, j, k))
				ve.Set3(i+1, j+1, k+1, vc.At3(i, j, k))
			}
		}
	}
	s := New(env)
	got := s.residSubtract(vc, uc)
	extSolver := core.New(env)
	want := extSolver.Env.NewArray(ue.Shape())
	_ = want
	// Extended: border(u); r = v − A·u via the core pipeline pieces.
	au := extSolver.Resid(ue)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				w := ve.At3(i+1, j+1, k+1) - au.At3(i+1, j+1, k+1)
				if g := got.At3(i, j, k); g != w {
					t.Fatalf("(%d,%d,%d): compact %v, extended %v", i, j, k, g, w)
				}
			}
		}
	}
}

// Mapping geometry: Fine2Coarse halves the extent, Coarse2Fine doubles it.
func TestMappingShapes(t *testing.T) {
	s := New(wl.Default())
	fine := array.New(shape.Of(16, 16, 16))
	coarse := s.fine2Coarse(fine)
	if !coarse.Shape().Equal(shape.Of(8, 8, 8)) {
		t.Fatalf("Fine2Coarse shape = %v", coarse.Shape())
	}
	back := s.coarse2Fine(coarse)
	if !back.Shape().Equal(shape.Of(16, 16, 16)) {
		t.Fatalf("Coarse2Fine shape = %v", back.Shape())
	}
}

// Interpolating a constant coarse grid reproduces the constant everywhere.
func TestCoarse2FineConstants(t *testing.T) {
	s := New(wl.Default())
	coarse := mgtest.NewFilled(shape.Of(4, 4, 4), 3.25)
	fine := s.coarse2Fine(coarse)
	for _, v := range fine.Data() {
		if math.Abs(v-3.25) > 1e-14 {
			t.Fatalf("interpolated constant = %v", v)
		}
	}
}

// The wrapped A stencil annihilates constants on the torus — with NO
// special boundary handling, which is the point of this variant.
func TestOperatorAnnihilatesConstantsEverywhere(t *testing.T) {
	s := New(wl.Default())
	u := mgtest.NewFilled(shape.Of(8, 8, 8), 5.0)
	v := array.New(shape.Of(8, 8, 8))
	r := s.residSubtract(v, u)
	for i, x := range r.Data() {
		if math.Abs(x) > 1e-12 {
			t.Fatalf("r[%d] = %v on a constant grid (boundary cells included)", i, x)
		}
	}
}

// Translation invariance on the torus: shifting the input cyclically
// shifts the output — a property the extended-grid version only has on
// the interior, but the compact one has everywhere.
func TestTranslationInvariance(t *testing.T) {
	env := wl.Default()
	s := New(env)
	n := 8
	u := array.New(shape.Of(n, n, n))
	for i := range u.Data() {
		u.Data()[i] = math.Sin(float64(i) * 1.7)
	}
	v := array.New(shape.Of(n, n, n))
	r := s.residSubtract(v, u)
	// Shift u by (1, 2, 3) cyclically and recompute.
	shifted := array.New(shape.Of(n, n, n))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				shifted.Set3((i+1)%n, (j+2)%n, (k+3)%n, u.At3(i, j, k))
			}
		}
	}
	rs := s.residSubtract(v, shifted)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				a := r.At3(i, j, k)
				b := rs.At3((i+1)%n, (j+2)%n, (k+3)%n)
				if math.Abs(a-b) > 1e-13 {
					t.Fatalf("translation invariance broken at (%d,%d,%d): %v vs %v", i, j, k, a, b)
				}
			}
		}
	}
}

// Parallel execution is bit-identical.
func TestParallelBitIdentical(t *testing.T) {
	seq, _ := NewBenchmark(nas.ClassS, wl.Default()).Run()
	for _, workers := range []int{2, 4} {
		env := wl.Parallel(workers)
		par, _ := NewBenchmark(nas.ClassS, env).Run()
		env.Close()
		if par != seq {
			t.Fatalf("%d workers: %.17e != sequential %.17e", workers, par, seq)
		}
	}
}

// The smallest grids work: VCycle on a 2³ grid is a single smoothing.
func TestVCycleBaseCase(t *testing.T) {
	s := New(wl.Default())
	r := array.New(shape.Of(2, 2, 2))
	for i := range r.Data() {
		r.Data()[i] = float64(i + 1)
	}
	got := s.vcycle(r)
	want := s.smoothAdd(nil, r)
	if !got.Equal(want) {
		t.Fatal("base case is not a single smoothing step")
	}
}

func TestChecksPanic(t *testing.T) {
	s := New(wl.Default())
	for name, f := range map[string]func(){
		"rank":       func() { s.MGrid(array.New(shape.Of(4, 4)), 1) },
		"non-cube":   func() { s.MGrid(array.New(shape.Of(4, 4, 8)), 1) },
		"non-pow2":   func() { s.MGrid(array.New(shape.Of(6, 6, 6)), 1) },
		"resid-rank": func() { s.residSubtract(array.New(shape.Of(2, 2)), array.New(shape.Of(2, 2))) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// The future-work claim (paper §7): the compact variant saves the border
// bookkeeping of the extended one. Both sides run the same plane kernels
// under the same backend rule, so what differs is the bookkeeping: the
// extended solver's border exchanges against the compact one's ring fills
// and row copies. A wall-clock comparison, so a benchmark and not a test
// (EXPERIMENTS.md FW-1).
func BenchmarkCompactVsExtended(b *testing.B) {
	b.Run("extended", func(b *testing.B) {
		bench := core.NewBenchmark(nas.ClassW, wl.Default())
		bench.Reset()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bench.Solve()
		}
	})
	b.Run("compact", func(b *testing.B) {
		bench := NewBenchmark(nas.ClassW, wl.Default())
		bench.Reset()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bench.Solve()
		}
	})
}

// The compact solver obeys the same release discipline.
func TestReleaseDisciplineParanoid(t *testing.T) {
	env := wl.Default()
	env.Pool.SetParanoid(true)
	b := NewBenchmark(nas.ClassS, env)
	b.Run()
	live := func() uint64 { st := env.Pool.Stats(); return st.Allocs + st.Reuses - st.Puts }
	live1 := live()
	b.Run()
	if live2 := live(); live2 > live1 {
		t.Fatalf("live buffers grew between runs: %d -> %d (leak)", live1, live2)
	}
}

// Exercise the full-coefficient path of the wrapped relaxation (the NPB
// stencils all have a zero coefficient; the P operator does not).
func TestRelaxAllCoefficientsNonZero(t *testing.T) {
	env := wl.Default()
	s := New(env)
	s.Smoother = [4]float64{0.5, 0.25, 0.125, 0.0625} // the P weights: none zero
	r := array.New(shape.Of(4, 4, 4))
	for i := range r.Data() {
		r.Data()[i] = float64(i%7) - 3
	}
	out := s.smoothAdd(nil, r)
	// Constant check: sum of weights × constant.
	c := mgtest.NewFilled(shape.Of(4, 4, 4), 2.0)
	total := 0.5 + 6*0.25 + 12*0.125 + 8*0.0625
	outC := s.smoothAdd(nil, c)
	for _, v := range outC.Data() {
		if math.Abs(v-2*total) > 1e-13 {
			t.Fatalf("full-coefficient relax on constants = %v, want %v", v, 2*total)
		}
	}
	_ = out
	// And the add/sub merge modes with full coefficients.
	z := mgtest.NewFilled(shape.Of(4, 4, 4), 1.0)
	added := s.smoothAdd(z, c)
	for _, v := range added.Data() {
		if math.Abs(v-(1+2*total)) > 1e-13 {
			t.Fatalf("full-coefficient SmoothAdd = %v", v)
		}
	}
	s.Operator = s.Smoother
	sub := s.residSubtract(z, c)
	for _, v := range sub.Data() {
		if math.Abs(v-(1-2*total)) > 1e-13 {
			t.Fatalf("full-coefficient ResidSubtract = %v", v)
		}
	}
}

// Executable-specification cross-check: the optimized compact solver must
// match the deliberately naive oracle written straight from the paper's
// Fig. 2 (nas.Oracle*), up to floating-point reassociation.
func TestMatchesOracleSpecification(t *testing.T) {
	env := wl.Default()
	s := New(env)
	n := 8
	u := array.New(shape.Of(n, n, n))
	v := array.New(shape.Of(n, n, n))
	for i := range u.Data() {
		u.Data()[i] = math.Sin(float64(i) * 0.41)
		v.Data()[i] = math.Cos(float64(i) * 0.29)
	}

	// v − A·u.
	au := mgtest.OracleStencil(u, [4]float64(s.Operator))
	want := array.New(u.Shape())
	for i := range want.Data() {
		want.Data()[i] = v.Data()[i] - au.Data()[i]
	}
	got := s.residSubtract(v, u)
	if !mgtest.ApproxEqual(got, want, 1e-12) {
		t.Fatalf("ResidSubtract diverges from the oracle (max diff %g)", mgtest.MaxAbsDiff(got, want))
	}

	// Restriction and prolongation.
	if fc := s.fine2Coarse(u); !mgtest.ApproxEqual(fc, mgtest.OracleRestrict(u), 1e-12) {
		t.Fatal("Fine2Coarse diverges from the oracle")
	}
	zc := array.New(shape.Of(n/2, n/2, n/2))
	for i := range zc.Data() {
		zc.Data()[i] = math.Sin(float64(i) * 1.3)
	}
	if cf := s.coarse2Fine(zc); !mgtest.ApproxEqual(cf, mgtest.OracleInterp(zc), 1e-12) {
		t.Fatal("Coarse2Fine diverges from the oracle")
	}

	// The whole V-cycle.
	r := s.residSubtract(v, u)
	gotZ := s.vcycle(r)
	wantZ := mgtest.OracleVCycle(r, [4]float64(s.Operator), [4]float64(s.Smoother))
	if !mgtest.ApproxEqual(gotZ, wantZ, 1e-11) {
		t.Fatalf("VCycle diverges from the oracle (max diff %g)", mgtest.MaxAbsDiff(gotZ, wantZ))
	}
}
