package core

import (
	"cmp"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/aplib"
	"repro/internal/array"
	"repro/internal/f77"
	"repro/internal/mgtest"
	"repro/internal/nas"
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

// levelOps are the operations of a V-cycle level whose results the
// optimization levels are held to.
var levelOps = []struct {
	name string
	run  func(s *Solver, a *array.Array) *array.Array
}{
	{"Fine2Coarse", (*Solver).Fine2Coarse},
	{"Coarse2Fine", (*Solver).Coarse2Fine},
	{"VCycle", (*Solver).VCycle},
	{"MGrid", func(s *Solver, v *array.Array) *array.Array { return s.MGrid(v, 2) }},
}

// agreeAfterComm3 runs op at O3 and at O0, each on a copy of a, and fails
// unless the two results agree in shape and, after one border exchange on
// each, in every bit: the halo rule of DESIGN.md §5.
func agreeAfterComm3(t *testing.T, op int, a *array.Array) {
	t.Helper()
	var out [2]*array.Array
	for i, opt := range []wl.OptLevel{wl.O3, wl.O0} {
		env := wl.Default()
		env.Opt = opt
		out[i] = levelOps[op].run(New(env), a.Clone())
		nas.Comm3(out[i])
	}
	sameBits(t, fmt.Sprintf("%s on %v after Comm3", levelOps[op].name, a.Shape()), out[0], out[1])
}

// The folded O3 kernels take cubes; a grid whose extents differ runs the
// generic composition at O3 as at O0, so every operation returns O0's
// shape and interior.
func TestNonCubicGridsRunGeneric(t *testing.T) {
	for i, ext := range [][3]int{{10, 6, 18}, {18, 10, 34}} {
		for op := range levelOps {
			a := randomBox(int64(i), ext[0], ext[1], ext[2])
			if levelOps[op].name == "Coarse2Fine" {
				a = randomBox(int64(i), ext[0]/2+1, ext[1]/2+1, ext[2]/2+1)
			}
			agreeAfterComm3(t, op, a)
		}
	}
}

// On cubes O0 and O3 give VCycle and MGrid the same interior but not the
// same halo, and neither halo is the periodic image; one border exchange
// on each result makes the two agree on every bit.
func TestHaloAgreesAfterComm3(t *testing.T) {
	for _, n := range []int{10, 18, 34} {
		for op := 2; op < len(levelOps); op++ {
			agreeAfterComm3(t, op, randomBox(int64(n), n, n, n))
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
			t.Fatalf("opt %v: SetupPeriodicBorder != Comm3 (max diff %g)", opt, mgtest.MaxAbsDiff(got, want))
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
	before := env.Pool.Stats()
	b.Run() // second run: every size class is warm
	st := env.Pool.Stats()
	st.Allocs -= before.Allocs
	st.Reuses -= before.Reuses
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
	live := func() uint64 { st := env.Pool.Stats(); return st.Allocs + st.Reuses - st.Puts }
	live1 := live()
	b.Run()
	if live2 := live(); live2 > live1 {
		t.Fatalf("live buffers grew between runs: %d -> %d (leak)", live1, live2)
	}
}

// The scalar, norm-fused kernels must reproduce the sequential default O3
// path bit for bit — the verification norms and the full solution grid —
// for every worker count: the scalar leg of the variant × workers matrix
// TestBufferedBitIdentical covers from the other side (scalar reference,
// the other backends under test). Subtests carry the name of sched's one
// partition, static blocks.
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
				mgtest.MaxAbsDiff(b.U(), refU))
		}
	}

	for _, workers := range []int{1, 2, 4, 8} {
		env := wl.Parallel(workers)
		env.Variant = wl.VariantScalar
		t.Run(fmt.Sprintf("w%d_static-block", workers), func(t *testing.T) {
			check(t, env)
		})
	}
}

// TestBufferedBitIdentical: the line-buffered and simd kernel variants,
// and the default dispatch that picks a backend per level, must reproduce
// the sequential scalar run bit-for-bit — norms and the full solution
// grid — across worker counts.
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
				mgtest.MaxAbsDiff(b.U(), refU))
		}
	}

	// "" is the default dispatch: no Variant, the rule decides per level.
	variants := []string{"", wl.VariantBuffered, wl.VariantSIMD}
	for _, variant := range variants {
		for _, workers := range []int{1, 2, 4, 8} {
			env := wl.Parallel(workers)
			env.Variant = variant
			t.Run(fmt.Sprintf("%s_w%d_static-block", cmp.Or(variant, "default"), workers), func(t *testing.T) {
				check(t, env)
			})
		}
	}

	// An unknown Env.Variant stops the solve at its first kernel and names
	// the accepted backends, rather than run one under a misspelt name.
	t.Run("unknown_variant_panics", func(t *testing.T) {
		env := wl.Default()
		env.Variant = "turbo"
		defer func() {
			msg := fmt.Sprint(recover())
			for _, want := range []string{`"turbo"`, wl.VariantScalar, wl.VariantBuffered, wl.VariantSIMD} {
				if !strings.Contains(msg, want) {
					t.Errorf("panic %q does not mention %s", msg, want)
				}
			}
		}()
		NewBenchmark(nas.ClassS, env).Run()
	})
}

// TestWarmSolveAllocs pins the Go-heap traffic of a warm solve at zero:
// array headers are recycled with their pooled buffers, and a one-worker
// sweep — the coarsest smoothing included — calls its plane kernels
// without a scheduler closure.
func TestWarmSolveAllocs(t *testing.T) {
	classes := []nas.Class{nas.ClassS, nas.ClassW}
	if testing.Short() {
		classes = classes[:1] // class W skipped in -short
	}
	for _, class := range classes {
		for _, variant := range []string{"", wl.VariantScalar} {
			env := wl.Default()
			env.Variant = variant
			b := NewBenchmark(class, env)
			b.Run() // warm the pool
			if got := testing.AllocsPerRun(2, func() { b.Solve() }); got != 0 {
				t.Errorf("class %c variant %q: warm solve allocates %.0f objects, want 0", class.Name, variant, got)
			}
		}
	}
}
