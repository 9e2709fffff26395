package core

import (
	"cmp"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/aplib"
	"repro/internal/array"
	"repro/internal/f77"
	"repro/internal/nas"
	"repro/internal/sched"
	"repro/internal/shape"
	"repro/internal/stencil"
	wl "repro/internal/withloop"
)

// TestVerifyClassS: the high-level SAC program must pass the official NPB
// verification, like the low-level reference.
func TestVerifyClassS(t *testing.T) {
	b := NewBenchmark(nas.ClassS, wl.Default())
	rnm2, _ := b.Run()
	want, _, _ := nas.ClassS.VerifyValue()
	if verified, ok := nas.ClassS.Verify(rnm2); !ok || !verified {
		t.Fatalf("class S rnm2 = %.13e, want %.13e ± %g", rnm2, want, nas.Epsilon)
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

// Cross-implementation: the SAC-style solution must agree with the f77
// reference far beyond the verification tolerance (they compute the same
// algorithm with different association of floating-point operations).
func TestMatchesF77Reference(t *testing.T) {
	b := NewBenchmark(nas.ClassS, wl.Default())
	sacNorm, _ := b.Run()
	ref := f77.New(nas.ClassS)
	refNorm, _ := ref.Run()
	if rel := math.Abs(sacNorm-refNorm) / refNorm; rel > 1e-10 {
		t.Fatalf("SAC %.15e vs f77 %.15e: relative difference %.2e", sacNorm, refNorm, rel)
	}
	// Solution grids agree element-wise on the interior.
	n := nas.ClassS.N
	for i3 := 1; i3 <= n; i3++ {
		for i2 := 1; i2 <= n; i2++ {
			for i1 := 1; i1 <= n; i1++ {
				a := b.U().At3(i3, i2, i1)
				f := ref.U().At3(i3, i2, i1)
				if d := math.Abs(a - f); d > 1e-14 {
					t.Fatalf("u differs at (%d,%d,%d): %.17g vs %.17g", i3, i2, i1, a, f)
				}
			}
		}
	}
}

// Every optimization level produces bit-identical benchmark results: the
// fused kernels replicate the generic WITH-loop arithmetic exactly.
func TestOptLevelsBitIdentical(t *testing.T) {
	var ref float64
	for i, opt := range []wl.OptLevel{wl.O0, wl.O1, wl.O2, wl.O3} {
		env := wl.Default()
		env.Opt = opt
		rnm2, _ := NewBenchmark(nas.ClassS, env).Run()
		if i == 0 {
			ref = rnm2
			continue
		}
		if rnm2 != ref {
			t.Fatalf("opt %v: rnm2 = %.17e, O0 = %.17e (not bitwise equal)", opt, rnm2, ref)
		}
	}
}

// Implicit parallelization must not change a single bit.
func TestParallelBitIdentical(t *testing.T) {
	seq, _ := NewBenchmark(nas.ClassS, wl.Default()).Run()
	for _, workers := range []int{2, 4} {
		env := wl.Parallel(workers)
		rnm2, _ := NewBenchmark(nas.ClassS, env).Run()
		env.Close()
		if rnm2 != seq {
			t.Fatalf("%d workers: rnm2 = %.17e, sequential %.17e", workers, rnm2, seq)
		}
	}
}

// SetupPeriodicBorder must agree exactly with the low-level comm3.
func TestSetupPeriodicBorderMatchesComm3(t *testing.T) {
	for _, opt := range []wl.OptLevel{wl.O0, wl.O1, wl.O2, wl.O3} {
		env := wl.Default()
		env.Opt = opt
		s := New(env)
		m := 8
		a := array.New(shape.Of(m, m, m))
		for i := range a.Data() {
			a.Data()[i] = math.Sin(float64(i) * 0.31)
		}
		want := a.Clone()
		nas.Comm3(want)
		got := s.SetupPeriodicBorder(a.Clone())
		if !got.Equal(want) {
			t.Fatalf("opt %v: SetupPeriodicBorder != Comm3 (max diff %g)", opt, got.MaxAbsDiff(want))
		}
	}
}

// At O2+ the border update happens in place; below O2 the argument is
// preserved (functional semantics).
func TestSetupPeriodicBorderReuseSemantics(t *testing.T) {
	mk := func() *array.Array {
		a := array.New(shape.Of(6, 6, 6))
		for i := range a.Data() {
			a.Data()[i] = float64(i)
		}
		return a
	}
	envHi := wl.Default()
	a := mk()
	if got := New(envHi).SetupPeriodicBorder(a); got != a {
		t.Fatal("O3: border update did not reuse the argument")
	}
	envLo := wl.Default()
	envLo.Opt = wl.O1
	b := mk()
	orig := b.Clone()
	got := New(envLo).SetupPeriodicBorder(b)
	if got == b {
		t.Fatal("O1: border update mutated the argument")
	}
	if !b.Equal(orig) {
		t.Fatal("O1: argument contents changed")
	}
}

func TestSetupPeriodicBorderRank1(t *testing.T) {
	s := New(wl.Default())
	a := array.FromSlice(shape.Of(6), []float64{9, 1, 2, 3, 4, 9})
	got := s.SetupPeriodicBorder(a)
	want := array.FromSlice(shape.Of(6), []float64{4, 1, 2, 3, 4, 1})
	if !got.Equal(want) {
		t.Fatalf("rank-1 border = %v, want %v", got, want)
	}
}

func TestSetupPeriodicBorderScalarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("rank-0 did not panic")
		}
	}()
	New(wl.Default()).SetupPeriodicBorder(array.Scalar(1))
}

// VCycle terminates at the 2³-interior grid: feeding it the smallest legal
// grid must apply exactly one smoothing step.
func TestVCycleBaseCase(t *testing.T) {
	env := wl.Default()
	s := New(env)
	r := array.New(shape.Of(4, 4, 4))
	for i := range r.Data() {
		r.Data()[i] = math.Cos(float64(i))
	}
	got := s.VCycle(r.Clone())
	want := s.Smooth(r.Clone())
	if !got.Equal(want) {
		t.Fatal("VCycle base case is not a single Smooth")
	}
}

// MGrid with zero right-hand side returns the zero solution.
func TestMGridZeroRHS(t *testing.T) {
	env := wl.Default()
	s := New(env)
	v := array.New(shape.Of(10, 10, 10))
	u := s.MGrid(v, 3)
	for _, x := range u.Data() {
		if x != 0 {
			t.Fatal("MGrid(0) != 0")
		}
	}
}

// The same rank-generic code runs on a 2-D grid (the paper: "this SAC code
// could be reused for grids of any dimension without alteration") — with
// dimension-appropriate stencil coefficients it converges.
func TestMGridRank2Converges(t *testing.T) {
	env := wl.Default()
	s := New(env)
	// 9-point Laplacian, full-weighting restriction (×4 h² compensation),
	// bilinear interpolation, damped-Jacobi-style smoother.
	s.Operator = stencil.Coeffs{-10.0 / 3.0, 2.0 / 3.0, 1.0 / 6.0, 0}
	s.Project = stencil.Coeffs{1.0, 0.5, 0.25, 0}
	s.Interp = stencil.Coeffs{1.0, 0.5, 0.25, 0}
	s.Smoother = stencil.Coeffs{-0.3, 0.0, 0.0, 0}

	n := 32
	v := array.New(shape.Of(n+2, n+2))
	// Zero-mean periodic right-hand side.
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			x := 2 * math.Pi * float64(i-1) / float64(n)
			y := 2 * math.Pi * float64(j-1) / float64(n)
			v.Set(shape.Index{i, j}, math.Sin(x)*math.Cos(2*y))
		}
	}
	residNorm := func(u *array.Array) float64 {
		au := s.Resid(u)
		r := aplib.Sub(env, v, au)
		env.Release(au)
		sum := 0.0
		for i := 1; i <= n; i++ {
			for j := 1; j <= n; j++ {
				x := r.At(shape.Index{i, j})
				sum += x * x
			}
		}
		env.Release(r)
		return math.Sqrt(sum / float64(n*n))
	}
	u0 := array.New(shape.Of(n+2, n+2))
	start := residNorm(u0)
	u := s.MGrid(v, 6)
	end := residNorm(u)
	if !(end < start*1e-2) {
		t.Fatalf("2-D MGrid did not converge: ‖r‖ %g → %g", start, end)
	}
	for _, x := range u.Data() {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatal("2-D MGrid produced non-finite values")
		}
	}
}

// The same code also runs on a 1-D grid.
func TestMGridRank1Runs(t *testing.T) {
	env := wl.Default()
	s := New(env)
	s.Operator = stencil.Coeffs{-2, 1, 0, 0} // 1-D Laplacian
	s.Project = stencil.Coeffs{2, 1, 0, 0}
	s.Interp = stencil.Coeffs{1, 0.5, 0, 0}
	s.Smoother = stencil.Coeffs{-0.4, 0, 0, 0}
	n := 64
	v := array.New(shape.Of(n + 2))
	for i := 1; i <= n; i++ {
		v.Set(shape.Index{i}, math.Sin(2*math.Pi*float64(i-1)/float64(n)))
	}
	u := s.MGrid(v, 4)
	if u.Shape()[0] != n+2 {
		t.Fatalf("1-D result shape %v", u.Shape())
	}
	for _, x := range u.Data() {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatal("1-D MGrid produced non-finite values")
		}
	}
}

// Fine2Coarse output has the correct coarse shape, Coarse2Fine restores
// the fine shape — the Fig. 8/9 geometry.
func TestGridMappingShapes(t *testing.T) {
	s := New(wl.Default())
	fine := array.New(shape.Of(18, 18, 18)) // 16³ interior
	coarse := s.Fine2Coarse(fine)
	if !coarse.Shape().Equal(shape.Of(10, 10, 10)) {
		t.Fatalf("Fine2Coarse shape = %v, want [10,10,10]", coarse.Shape())
	}
	back := s.Coarse2Fine(coarse)
	if !back.Shape().Equal(shape.Of(18, 18, 18)) {
		t.Fatalf("Coarse2Fine shape = %v, want [18,18,18]", back.Shape())
	}
}

// Coarse2Fine of a constant-interior coarse grid yields the same constant
// on the whole fine interior (interpolation reproduces constants).
func TestCoarse2FineReproducesConstants(t *testing.T) {
	s := New(wl.Default())
	coarse := array.New(shape.Of(6, 6, 6))
	for i := 1; i <= 4; i++ {
		for j := 1; j <= 4; j++ {
			for k := 1; k <= 4; k++ {
				coarse.Set3(i, j, k, 2.5)
			}
		}
	}
	fine := s.Coarse2Fine(coarse)
	for i := 1; i <= 8; i++ {
		for j := 1; j <= 8; j++ {
			for k := 1; k <= 8; k++ {
				if d := math.Abs(fine.At3(i, j, k) - 2.5); d > 1e-14 {
					t.Fatalf("fine(%d,%d,%d) = %g, want 2.5", i, j, k, fine.At3(i, j, k))
				}
			}
		}
	}
}

// The memory pool must absorb the functional allocation traffic: after one
// benchmark run, most array requests are satisfied by reuse.
func TestMemoryPoolAbsorbsTraffic(t *testing.T) {
	env := wl.Default()
	b := NewBenchmark(nas.ClassS, env)
	b.Run()
	env.Pool.Reset()
	b.Run() // second run: every size class is warm
	st := env.Pool.Stats()
	if st.Reuses == 0 {
		t.Fatal("memory pool never reused a buffer")
	}
	if st.Reuses < st.Allocs {
		t.Fatalf("pool mostly missing: %v", st)
	}
}

// Probe coverage: one MGrid iteration must report resid/smooth at every
// level and the two mappings between all adjacent levels.
func TestProbeCoverage(t *testing.T) {
	env := wl.Default()
	b := NewBenchmark(nas.ClassS, env)
	counts := map[string]int{}
	levels := map[string]map[int]bool{}
	b.Solver.Probe = func(region string, level int, _ time.Duration) {
		counts[region]++
		if levels[region] == nil {
			levels[region] = map[int]bool{}
		}
		levels[region][level] = true
	}
	b.Reset()
	u := b.Solver.MGrid(b.V(), 1)
	env.Release(u)
	lt := nas.ClassS.LT()
	// One iteration: resid at top (MGrid) + per-level resids in VCycle
	// (levels 2..lt), smooth at every level, mappings between all pairs.
	if counts["fine2coarse"] != lt-1 || counts["coarse2fine"] != lt-1 {
		t.Fatalf("mapping probe counts wrong: %v", counts)
	}
	if counts["smooth"] != lt {
		t.Fatalf("smooth count = %d, want %d", counts["smooth"], lt)
	}
	if counts["resid"] != lt {
		t.Fatalf("resid count = %d, want %d", counts["resid"], lt)
	}
	for _, lvl := range []int{1, lt} {
		if !levels["smooth"][lvl] {
			t.Fatalf("smooth never probed at level %d: %v", lvl, levels["smooth"])
		}
	}
}

func TestBenchmarkRunDeterministic(t *testing.T) {
	b := NewBenchmark(nas.ClassS, wl.Default())
	a, _ := b.Run()
	c, _ := b.Run()
	if a != c {
		t.Fatalf("two runs differ: %v vs %v", a, c)
	}
}

func BenchmarkSACClassSIteration(b *testing.B) {
	env := wl.Default()
	bench := NewBenchmark(nas.ClassS, env)
	bench.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := bench.Solver.MGrid(bench.V(), 1)
		env.Release(u)
	}
}

// The whole benchmark runs under the memory pool's release-discipline
// checking: every buffer released exactly once, and the iteration loop
// does not leak (live buffer count stays flat across runs).
func TestReleaseDisciplineParanoid(t *testing.T) {
	env := wl.Default()
	env.Pool.SetParanoid(true)
	b := NewBenchmark(nas.ClassS, env)
	b.Run() // panics on any double/foreign release
	live1 := env.Pool.Live()
	b.Run()
	live2 := env.Pool.Live()
	if live2 > live1 {
		t.Fatalf("live buffers grew between runs: %d -> %d (leak)", live1, live2)
	}
}

// The scalar, norm-fused kernels must reproduce the sequential default O3
// path bit for bit — the verification norms and the full solution grid —
// for every worker count and scheduling policy: the scalar leg of the
// variant × schedule matrix TestBufferedBitIdentical covers from the other
// side (scalar reference, the other backends under test).
func TestScalarKernelsBitIdentical(t *testing.T) {
	refB := NewBenchmark(nas.ClassS, wl.Default())
	refN2, refNU := refB.Run()
	refU := refB.U().Clone()

	check := func(t *testing.T, env *wl.Env) {
		defer env.Close()
		b := NewBenchmark(nas.ClassS, env)
		rnm2, rnmu := b.Run()
		if rnm2 != refN2 || rnmu != refNU {
			t.Fatalf("norms (%.17e, %.17e) != reference (%.17e, %.17e)",
				rnm2, rnmu, refN2, refNU)
		}
		if !b.U().Equal(refU) {
			t.Fatalf("solution grid differs from reference (max diff %g)",
				b.U().MaxAbsDiff(refU))
		}
	}

	for _, workers := range []int{1, 2, 4, 8} {
		policies := sched.Policies()
		if workers == 1 {
			policies = policies[:1] // policy is irrelevant on one worker
		}
		for _, policy := range policies {
			env := wl.Parallel(workers)
			env.ForOpt.Policy = policy
			env.Variant = wl.VariantScalar
			t.Run(fmt.Sprintf("w%d_%s", workers, policy), func(t *testing.T) {
				check(t, env)
			})
		}
	}
}

// TestBufferedBitIdentical: the line-buffered and simd kernel variants,
// and the default dispatch that picks a backend per level, must reproduce
// the sequential scalar run bit-for-bit — norms and the full solution
// grid — across worker counts and scheduling policies.
// This is the contract that lets the default rule switch variants per
// level without perturbing NPB verification (see the package comment's
// "Kernel variants" section).
func TestBufferedBitIdentical(t *testing.T) {
	refEnv := wl.Default()
	refEnv.Variant = wl.VariantScalar
	refB := NewBenchmark(nas.ClassS, refEnv)
	refN2, refNU := refB.Run()
	refU := refB.U().Clone()

	check := func(t *testing.T, env *wl.Env) {
		defer env.Close()
		b := NewBenchmark(nas.ClassS, env)
		rnm2, rnmu := b.Run()
		if rnm2 != refN2 || rnmu != refNU {
			t.Fatalf("norms (%.17e, %.17e) != scalar reference (%.17e, %.17e)",
				rnm2, rnmu, refN2, refNU)
		}
		if !b.U().Equal(refU) {
			t.Fatalf("solution grid differs from scalar reference (max diff %g)",
				b.U().MaxAbsDiff(refU))
		}
	}

	// "" is the default dispatch: no Variant, the rule decides per level.
	variants := []string{"", wl.VariantBuffered, wl.VariantSIMD}
	for _, variant := range variants {
		for _, workers := range []int{1, 2, 4, 8} {
			policies := sched.Policies()
			if workers == 1 {
				policies = policies[:1] // policy is irrelevant on one worker
			}
			for _, policy := range policies {
				env := wl.Parallel(workers)
				env.ForOpt.Policy = policy
				env.Variant = variant
				t.Run(fmt.Sprintf("%s_w%d_%s", cmp.Or(variant, "default"), workers, policy), func(t *testing.T) {
					check(t, env)
				})
			}
		}
	}

	// An unknown Env.Variant must degrade to scalar, not misbehave.
	t.Run("unknown_variant_is_scalar", func(t *testing.T) {
		env := wl.Parallel(2)
		env.Variant = "turbo"
		check(t, env)
	})
}

// TestWarmSolveAllocs pins the Go-heap traffic of a warm solve: array
// headers are recycled with their pooled buffers and a one-worker sweep
// calls its plane kernels without a scheduler closure, so what is left is
// a handful of objects per solve. The budget is a quarter of the 325
// objects a warm class-S solve allocated when every array and every
// kernel invocation cost two to three.
func TestWarmSolveAllocs(t *testing.T) {
	const budget = 325 / 4
	for _, variant := range []string{"", wl.VariantScalar} {
		env := wl.Default()
		env.Variant = variant
		b := NewBenchmark(nas.ClassS, env)
		b.Run() // warm the pool
		if got := testing.AllocsPerRun(5, func() { b.Solve() }); got > budget {
			t.Errorf("variant %q: warm solve allocates %.0f objects, budget %d", variant, got, budget)
		}
	}
}
