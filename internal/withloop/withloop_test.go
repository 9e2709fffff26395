package withloop

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/array"
	"repro/internal/mempool"
	"repro/internal/mgtest"
	"repro/internal/sched"
	"repro/internal/shape"
)

// envs returns environments covering every optimization level and a
// parallel configuration, for equivalence testing. Callers must Close them.
func envs() []*Env {
	list := []*Env{}
	for _, opt := range []OptLevel{O0, O1, O2, O3} {
		e := Default()
		e.Opt = opt
		e.SeqThreshold = 0
		list = append(list, e)
	}
	par := Parallel(4)
	par.SeqThreshold = 0
	list = append(list, par)
	par2 := Parallel(3)
	par2.Opt = O0
	par2.SeqThreshold = 0
	list = append(list, par2)
	return list
}

func closeAll(es []*Env) {
	for _, e := range es {
		e.Close()
	}
}

func TestOptLevelString(t *testing.T) {
	if O0.String() != "O0" || O3.String() != "O3" {
		t.Fatal("OptLevel.String wrong")
	}
}

func TestGenaraySimple(t *testing.T) {
	for _, e := range envs() {
		shp := shape.Of(2, 3)
		a := e.Genarray(shp, Full(shp), func(iv shape.Index) float64 {
			return float64(iv[0]*10 + iv[1])
		})
		want := array.FromSlice(shp, []float64{0, 1, 2, 10, 11, 12})
		if !a.Equal(want) {
			t.Fatalf("env %v/%dw: Genarray = %v, want %v", e.Opt, e.Workers(), a, want)
		}
	}
}

func TestGenarrayDefaultZeroOutsideGenerator(t *testing.T) {
	for _, e := range envs() {
		shp := shape.Of(4, 4)
		a := e.Genarray(shp, Gen([]int{1, 1}, []int{3, 3}), func(iv shape.Index) float64 {
			return 7
		})
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				want := 0.0
				if i >= 1 && i < 3 && j >= 1 && j < 3 {
					want = 7
				}
				if a.At(shape.Index{i, j}) != want {
					t.Fatalf("env %v: element (%d,%d) = %g, want %g",
						e.Opt, i, j, a.At(shape.Index{i, j}), want)
				}
			}
		}
	}
}

func TestGenarrayScalar(t *testing.T) {
	e := Default()
	a := e.Genarray(shape.Of(), Full(shape.Of()), func(iv shape.Index) float64 { return 5 })
	if a.Dim() != 0 || a.At(shape.Index{}) != 5 {
		t.Fatalf("scalar genarray = %v", a)
	}
}

func TestGenarrayStepWidth(t *testing.T) {
	// ( [0] <= iv < [10] step [3] width [2] ) selects 0,1,3,4,6,7,9.
	for _, e := range envs() {
		g := Gen([]int{0}, []int{10}).WithStep([]int{3})
		g.Width = []int{2}
		a := e.Genarray(shape.Of(10), g, func(iv shape.Index) float64 { return 1 })
		want := []float64{1, 1, 0, 1, 1, 0, 1, 1, 0, 1}
		for i, w := range want {
			if a.Data()[i] != w {
				t.Fatalf("env %v: step/width element %d = %g, want %g", e.Opt, i, a.Data()[i], w)
			}
		}
	}
}

func TestGenarrayStride3D(t *testing.T) {
	// The scatter pattern: every 2nd element in each of 3 axes.
	for _, e := range envs() {
		shp := shape.Of(4, 4, 4)
		g := Full(shp).WithStep([]int{2, 2, 2})
		a := e.Genarray(shp, g, func(iv shape.Index) float64 { return 1 })
		count := 0.0
		for _, v := range a.Data() {
			count += v
		}
		if count != 8 {
			t.Fatalf("env %v: strided 3-D generator wrote %g cells, want 8", e.Opt, count)
		}
		if a.At3(0, 0, 0) != 1 || a.At3(2, 2, 2) != 1 || a.At3(1, 0, 0) != 0 {
			t.Fatalf("env %v: strided positions wrong", e.Opt)
		}
	}
}

func TestModarray(t *testing.T) {
	for _, e := range envs() {
		base := array.FromSlice(shape.Of(3, 3), []float64{1, 1, 1, 1, 1, 1, 1, 1, 1})
		out := e.Modarray(base, Inner(base.Shape()), func(iv shape.Index) float64 { return 9 })
		if base.At(shape.Index{1, 1}) != 1 {
			t.Fatalf("env %v: Modarray mutated its argument", e.Opt)
		}
		if out.At(shape.Index{1, 1}) != 9 {
			t.Fatalf("env %v: Modarray did not apply f", e.Opt)
		}
		if out.At(shape.Index{0, 0}) != 1 || out.At(shape.Index{2, 2}) != 1 {
			t.Fatalf("env %v: Modarray changed elements outside the generator", e.Opt)
		}
	}
}

func TestModarrayReadsOldValues(t *testing.T) {
	// f reads the argument array; modarray semantics require the *old*
	// values even where the generator overwrites.
	e := Default()
	baseVals := []float64{1, 2, 3, 4, 5}
	base := array.FromSlice(shape.Of(5), baseVals)
	out := e.Modarray(base, Gen([]int{1}, []int{4}), func(iv shape.Index) float64 {
		return base.At(shape.Index{iv[0] - 1}) // reads a position the loop also writes
	})
	want := []float64{1, 1, 2, 3, 5}
	for i, w := range want {
		if out.Data()[i] != w {
			t.Fatalf("element %d = %g, want %g", i, out.Data()[i], w)
		}
	}
}

func TestModarrayReuseSemanticsMatchModarray(t *testing.T) {
	for _, e := range envs() {
		mk := func() *array.Array {
			return e.Genarray(shape.Of(4, 4), Full(shape.Of(4, 4)),
				func(iv shape.Index) float64 { return float64(iv[0] + iv[1]) })
		}
		g := Gen([]int{0, 0}, []int{1, 4}) // first row only; f reads other rows
		ref := e.Modarray(mk(), g, func(iv shape.Index) float64 { return -1 })
		a := mk()
		got := e.ModarrayReuse(a, g, func(iv shape.Index) float64 { return -1 })
		if !got.Equal(ref) {
			t.Fatalf("env %v: ModarrayReuse diverges from Modarray", e.Opt)
		}
		if e.Opt >= O2 && got != a {
			t.Fatalf("env %v: ModarrayReuse did not reuse in place", e.Opt)
		}
	}
}

func TestFoldSum(t *testing.T) {
	add := func(a, b float64) float64 { return a + b }
	for _, e := range envs() {
		shp := shape.Of(6, 7)
		got := e.Fold(shp, Full(shp), add, 0, func(iv shape.Index) float64 {
			return float64(iv[0]*7 + iv[1])
		})
		want := float64(41*42) / 2
		if got != want {
			t.Fatalf("env %v/%dw: Fold = %g, want %g", e.Opt, e.Workers(), got, want)
		}
	}
}

func TestFoldMax(t *testing.T) {
	for _, e := range envs() {
		shp := shape.Of(5, 5, 5)
		got := e.Fold(shp, Inner(shp), math.Max, math.Inf(-1), func(iv shape.Index) float64 {
			return math.Sin(float64(iv[0]*25 + iv[1]*5 + iv[2]))
		})
		want := math.Inf(-1)
		for i := 1; i < 4; i++ {
			for j := 1; j < 4; j++ {
				for k := 1; k < 4; k++ {
					want = math.Max(want, math.Sin(float64(i*25+j*5+k)))
				}
			}
		}
		if got != want {
			t.Fatalf("env %v: Fold max = %g, want %g", e.Opt, got, want)
		}
	}
}

func TestFoldEmptyGeneratorYieldsNeutral(t *testing.T) {
	e := Default()
	got := e.Fold(shape.Of(5), Gen([]int{3}, []int{3}),
		func(a, b float64) float64 { return a + b }, 42, func(shape.Index) float64 { return 1 })
	if got != 42 {
		t.Fatalf("empty fold = %g, want neutral 42", got)
	}
}

func TestFoldScalarSpace(t *testing.T) {
	e := Default()
	got := e.Fold(shape.Of(), Full(shape.Of()),
		func(a, b float64) float64 { return a + b }, 1, func(shape.Index) float64 { return 2 })
	if got != 3 {
		t.Fatalf("scalar fold = %g, want 3", got)
	}
}

// All optimization levels and worker counts must produce bit-identical
// arrays for the same WITH-loop.
func TestLevelsAndWorkersEquivalent(t *testing.T) {
	es := envs()
	defer closeAll(es)
	shp := shape.Of(9, 8, 7)
	gens := []Generator{
		Full(shp),
		Inner(shp),
		Gen([]int{0, 2, 1}, []int{9, 8, 6}),
		Full(shp).WithStep([]int{2, 1, 3}),
		{Lower: []int{0, 0, 0}, Upper: []int(shp), Step: []int{3, 2, 2}, Width: []int{2, 1, 2}},
	}
	f := func(iv shape.Index) float64 {
		return math.Sqrt(float64(iv[0]+1)) * float64(iv[1]) * 0.25 * float64(iv[2]*iv[2])
	}
	for gi, g := range gens {
		ref := es[0].Genarray(shp, g, f)
		for _, e := range es[1:] {
			got := e.Genarray(shp, g, f)
			if !got.Equal(ref) {
				t.Fatalf("generator %d (%v): env %v/%dw diverges from O0 reference",
					gi, g, e.Opt, e.Workers())
			}
		}
		refFold := es[0].Fold(shp, g, func(a, b float64) float64 { return a + b }, 0, f)
		for _, e := range es[1:] {
			got := e.Fold(shp, g, func(a, b float64) float64 { return a + b }, 0, f)
			if got != refFold {
				t.Fatalf("generator %d: fold at env %v/%dw = %v, want %v (bitwise)",
					gi, e.Opt, e.Workers(), got, refFold)
			}
		}
	}
}

func TestGeneratorContains(t *testing.T) {
	g := Gen([]int{1, 0}, []int{5, 6}).WithStep([]int{2, 3})
	g.Width = []int{1, 2}
	cases := []struct {
		iv   shape.Index
		want bool
	}{
		{shape.Index{1, 0}, true},
		{shape.Index{1, 1}, true},
		{shape.Index{1, 2}, false}, // (2-0)%3=2 >= width 2
		{shape.Index{2, 0}, false}, // (2-1)%2=1 >= width 1
		{shape.Index{3, 3}, true},
		{shape.Index{5, 0}, false}, // upper bound exclusive
		{shape.Index{0, 0}, false}, // below lower
		{shape.Index{1}, false},    // rank mismatch
	}
	for _, c := range cases {
		if got := g.contains(c.iv); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.iv, got, c.want)
		}
	}
}

// Property: Genarray agrees with a direct evaluation using
// the contains oracle for random generators.
func TestGenarrayMatchesContainsQuick(t *testing.T) {
	e := Default()
	e.SeqThreshold = 0
	f := func(lraw, uraw [2]uint8, sraw [2]uint8, useStep bool) bool {
		shp := shape.Of(7, 9)
		lower := []int{int(lraw[0] % 7), int(lraw[1] % 9)}
		upper := []int{lower[0] + int(uraw[0]%uint8(8-lower[0])), lower[1] + int(uraw[1]%uint8(10-lower[1]))}
		g := Gen(lower, upper)
		if useStep {
			g = g.WithStep([]int{int(sraw[0]%3) + 1, int(sraw[1]%3) + 1})
		}
		val := func(iv shape.Index) float64 { return float64(iv[0]*100+iv[1]) + 1 }
		a := e.Genarray(shp, g, val)
		iv := make(shape.Index, 2)
		for i := 0; i < 7; i++ {
			for j := 0; j < 9; j++ {
				iv[0], iv[1] = i, j
				want := 0.0
				if g.contains(iv) {
					want = val(iv)
				}
				if a.At(iv) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: Fold(+) over any generator equals the sum of Genarray's
// elements when f is non-zero only inside the generator.
func TestFoldMatchesGenarraySumQuick(t *testing.T) {
	e := Default()
	e.SeqThreshold = 0
	f := func(seed uint8, useStep bool) bool {
		shp := shape.Of(6, 5)
		g := Gen([]int{int(seed % 3), 0}, []int{6, int(seed%4) + 2})
		if useStep {
			g = g.WithStep([]int{2, 1})
		}
		val := func(iv shape.Index) float64 { return float64(iv[0]+2*iv[1]) + 1 }
		arr := e.Genarray(shp, g, val)
		sum := 0.0
		for _, v := range arr.Data() {
			sum += v
		}
		fold := e.Fold(shp, g, func(a, b float64) float64 { return a + b }, 0, val)
		return math.Abs(fold-sum) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestValidatePanics(t *testing.T) {
	e := Default()
	bad := []Generator{
		Gen([]int{0}, []int{2, 2}),                                                      // rank mismatch in bounds
		Gen([]int{0, 0}, []int{2, 2}).WithStep([]int{1}),                                // step rank
		Gen([]int{0, 0}, []int{2, 2}).WithStep([]int{0, 1}),                             // step < 1
		{Lower: []int{0, 0}, Upper: []int{2, 2}, Step: []int{2, 2}, Width: []int{3, 1}}, // width > step
		{Lower: []int{0, 0}, Upper: []int{2, 2}, Width: []int{1, 1}},                    // width without step
	}
	for i, g := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bad generator %d (%v) did not panic", i, g)
				}
			}()
			e.Genarray(shape.Of(2, 2), g, func(shape.Index) float64 { return 0 })
		}()
	}
}

func TestGeneratorString(t *testing.T) {
	g := Gen([]int{0, 0}, []int{4, 4}).WithStep([]int{2, 2})
	g.Width = []int{1, 2}
	s := g.String()
	for _, frag := range []string{"[0,0]", "[4,4]", "step", "width"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Generator.String() = %q missing %q", s, frag)
		}
	}
}

func TestEnvReleaseRecycles(t *testing.T) {
	e := Default()
	a := e.NewArray(shape.Of(32))
	ptr := &a.Data()[0]
	e.Release(a)
	b := e.NewArray(shape.Of(32))
	if &b.Data()[0] != ptr {
		t.Fatal("Release did not feed the memory pool")
	}
	e.Release(nil) // must not panic
}

func TestEnvNilPoolWorks(t *testing.T) {
	e := &Env{Sched: sched.Sequential, Opt: O3}
	a := e.Genarray(shape.Of(3), Full(shape.Of(3)), func(iv shape.Index) float64 {
		return float64(iv[0])
	})
	if a.Data()[2] != 2 {
		t.Fatal("nil-pool env broken")
	}
	e.Release(a)
}

func TestParallelEnvClose(t *testing.T) {
	e := Parallel(3)
	if e.Workers() != 3 {
		t.Fatalf("Workers = %d", e.Workers())
	}
	e.Close()
	// Close of an env on the shared sequential pool must not close it.
	d := Default()
	d.Close()
	ran := false
	sched.Sequential.For(1, 0, func(lo, hi, w int) { ran = true })
	if !ran {
		t.Fatal("Default env Close broke the shared sequential pool")
	}
}

func TestFullInnerGenerators(t *testing.T) {
	shp := shape.Of(5, 6)
	full := Full(shp)
	if full.String() != "([0,0] <= iv < [5,6])" || !full.isFull(shp) {
		t.Fatalf("Full generator wrong: %v", full)
	}
	inner := Inner(shp)
	if inner.String() != "([1,1] <= iv < [4,5])" || inner.isFull(shp) {
		t.Fatalf("Inner generator wrong: %v", inner)
	}
}

func TestSeqThresholdRespected(t *testing.T) {
	// With a huge threshold even a parallel env must produce correct (and
	// identical) results — the loop just runs inline.
	e := Parallel(4)
	defer e.Close()
	e.SeqThreshold = 1 << 30
	shp := shape.Of(16, 16)
	a := e.Genarray(shp, Full(shp), func(iv shape.Index) float64 { return float64(iv[0] ^ iv[1]) })
	d := Default()
	b := d.Genarray(shp, Full(shp), func(iv shape.Index) float64 { return float64(iv[0] ^ iv[1]) })
	if !a.Equal(b) {
		t.Fatal("threshold execution diverges")
	}
}

func BenchmarkGenarrayO0(b *testing.B) { benchGenarray(b, O0) }
func BenchmarkGenarrayO1(b *testing.B) { benchGenarray(b, O1) }

func benchGenarray(b *testing.B, opt OptLevel) {
	e := Default()
	e.Opt = opt
	shp := shape.Of(64, 64, 64)
	g := Full(shp)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := e.Genarray(shp, g, func(iv shape.Index) float64 {
			return float64(iv[0] + iv[1] + iv[2])
		})
		e.Release(a)
	}
}

var _ = mempool.New // keep import if unused in some build configurations

// Modarray with a strided generator: only the selected grid positions are
// replaced.
func TestModarrayStrided(t *testing.T) {
	for _, e := range envs() {
		base := mgtest.NewFilled(shape.Of(6, 6), 1)
		g := Full(base.Shape()).WithStep([]int{2, 3})
		out := e.Modarray(base, g, func(iv shape.Index) float64 { return 9 })
		iv := make(shape.Index, 2)
		for i := 0; i < 6; i++ {
			for j := 0; j < 6; j++ {
				iv[0], iv[1] = i, j
				want := 1.0
				if g.contains(iv) {
					want = 9
				}
				if out.At(iv) != want {
					t.Fatalf("env %v: strided modarray at %v = %v, want %v", e.Opt, iv, out.At(iv), want)
				}
			}
		}
	}
}

// Fold with a non-commutative-looking but associative op (max of absolute
// differences from a pivot) across strided generators and all levels.
func TestFoldStridedAllLevels(t *testing.T) {
	var ref float64
	for i, e := range envs() {
		shp := shape.Of(8, 8, 8)
		g := Inner(shp).WithStep([]int{2, 1, 3})
		got := e.Fold(shp, g, math.Max, 0, func(iv shape.Index) float64 {
			return math.Abs(float64(iv[0]*iv[1]) - float64(iv[2]*5))
		})
		if i == 0 {
			ref = got
			continue
		}
		if got != ref {
			t.Fatalf("env %v/%dw: strided fold = %v, want %v", e.Opt, e.Workers(), got, ref)
		}
	}
}

// contains reports whether iv is a member of the generator's index set:
// the membership oracle the Genarray tests check the engine against.
func (g Generator) contains(iv shape.Index) bool {
	if len(iv) != g.rank() {
		return false
	}
	for j := range iv {
		if iv[j] < g.Lower[j] || iv[j] >= g.Upper[j] {
			return false
		}
		if g.Step != nil {
			w := 1
			if g.Width != nil {
				w = g.Width[j]
			}
			if (iv[j]-g.Lower[j])%g.Step[j] >= w {
				return false
			}
		}
	}
	return true
}
