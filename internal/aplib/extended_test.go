package aplib

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/array"
	"repro/internal/shape"
	wl "repro/internal/withloop"
)

func TestRelationalOperators(t *testing.T) {
	e := wl.Default()
	a := array.FromSlice(shape.Of(4), []float64{1, 2, 3, 4})
	b := array.FromSlice(shape.Of(4), []float64{2, 2, 2, 2})
	if got := Eq(e, a, b); !got.Equal(array.FromSlice(shape.Of(4), []float64{0, 1, 0, 0})) {
		t.Fatalf("Eq = %v", got)
	}
	if got := Greater(e, a, b); !got.Equal(array.FromSlice(shape.Of(4), []float64{0, 0, 1, 1})) {
		t.Fatalf("Greater = %v", got)
	}
}

func TestWhere(t *testing.T) {
	for _, e := range testEnvs() {
		cond := array.FromSlice(shape.Of(4), []float64{1, 0, 1, 0})
		a := array.FromSlice(shape.Of(4), []float64{10, 20, 30, 40})
		b := array.FromSlice(shape.Of(4), []float64{-1, -2, -3, -4})
		want := array.FromSlice(shape.Of(4), []float64{10, -2, 30, -4})
		if got := Where(e, cond, a, b); !got.Equal(want) {
			t.Fatalf("env %v: Where = %v", e.Opt, got)
		}
	}
}

func TestWhereShapeMismatchPanics(t *testing.T) {
	e := wl.Default()
	defer func() {
		if recover() == nil {
			t.Error("Where with mismatched shapes did not panic")
		}
	}()
	Where(e, array.New(shape.Of(2)), array.New(shape.Of(2)), array.New(shape.Of(3)))
}

func TestAbsNeg(t *testing.T) {
	e := wl.Default()
	a := array.FromSlice(shape.Of(3), []float64{-1, 0, 2})
	if got := abs(e, a); !got.Equal(array.FromSlice(shape.Of(3), []float64{1, 0, 2})) {
		t.Fatalf("Abs = %v", got)
	}
	if got := neg(e, a); !got.Equal(array.FromSlice(shape.Of(3), []float64{1, 0, -2})) {
		t.Fatalf("Neg = %v", got)
	}
}

func TestProduct(t *testing.T) {
	for _, e := range testEnvs() {
		a := array.FromSlice(shape.Of(4), []float64{1, 2, 3, 4})
		if got := product(e, a); got != 24 {
			t.Fatalf("env %v: Product = %v", e.Opt, got)
		}
	}
	// Empty array: the neutral element.
	if got := product(wl.Default(), array.New(shape.Of(0))); got != 1 {
		t.Fatalf("Product of empty = %v", got)
	}
}

func TestMinMaxVal(t *testing.T) {
	e := wl.Default()
	a := array.FromSlice(shape.Of(2, 3), []float64{3, -1, 4, 1, -5, 9})
	if got := minVal(e, a); got != -5 {
		t.Fatalf("MinVal = %v", got)
	}
	if got := maxVal(e, a); got != 9 {
		t.Fatalf("MaxVal = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("MinVal of empty did not panic")
		}
	}()
	minVal(e, array.New(shape.Of(0)))
}

func TestAllAny(t *testing.T) {
	e := wl.Default()
	ones := array.NewFilled(shape.Of(3), 1)
	mixed := array.FromSlice(shape.Of(3), []float64{1, 0, 1})
	zeros := array.New(shape.Of(3))
	if !allOf(e, ones) || allOf(e, mixed) || allOf(e, zeros) {
		t.Fatal("All wrong")
	}
	if !anyOf(e, ones) || !anyOf(e, mixed) || anyOf(e, zeros) {
		t.Fatal("Any wrong")
	}
}

func TestSumAxis(t *testing.T) {
	e := wl.Default()
	a := array.FromSlice(shape.Of(2, 3), []float64{1, 2, 3, 4, 5, 6})
	rows := sumAxis(e, 1, a) // sum each row
	if !rows.Equal(array.FromSlice(shape.Of(2), []float64{6, 15})) {
		t.Fatalf("SumAxis(1) = %v", rows)
	}
	cols := sumAxis(e, 0, a) // sum each column
	if !cols.Equal(array.FromSlice(shape.Of(3), []float64{5, 7, 9})) {
		t.Fatalf("SumAxis(0) = %v", cols)
	}
	defer func() {
		if recover() == nil {
			t.Error("SumAxis with bad axis did not panic")
		}
	}()
	sumAxis(e, 2, a)
}

// Property: SumAxis composed over all axes equals the scalar Sum.
func TestSumAxisTotalsQuick(t *testing.T) {
	e := wl.Default()
	f := func(vals [12]int8) bool {
		data := make([]float64, 12)
		for i, v := range vals {
			data[i] = float64(v)
		}
		a := array.FromSlice(shape.Of(3, 4), data)
		byRows := sumAxis(e, 0, a)
		total := sumAxis(e, 0, byRows)
		return math.Abs(total.At(shape.Index{})-Sum(e, a)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReshape(t *testing.T) {
	e := wl.Default()
	a := array.FromSlice(shape.Of(2, 3), []float64{1, 2, 3, 4, 5, 6})
	r := reshape(e, shape.Of(3, 2), a)
	if r.At(shape.Index{0, 1}) != 2 || r.At(shape.Index{2, 1}) != 6 {
		t.Fatalf("Reshape order wrong: %v", r)
	}
	flat := reshape(e, shape.Of(6), a)
	if flat.Dim() != 1 || flat.At(shape.Index{4}) != 5 {
		t.Fatal("Reshape to rank 1 wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("size-changing Reshape did not panic")
		}
	}()
	reshape(e, shape.Of(5), a)
}

func TestTranspose(t *testing.T) {
	e := wl.Default()
	a := array.FromSlice(shape.Of(2, 3), []float64{1, 2, 3, 4, 5, 6})
	tr := transpose(e, nil, a)
	if !tr.Shape().Equal(shape.Of(3, 2)) {
		t.Fatalf("Transpose shape = %v", tr.Shape())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if tr.At(shape.Index{j, i}) != a.At(shape.Index{i, j}) {
				t.Fatal("Transpose values wrong")
			}
		}
	}
	// Identity permutation.
	id := transpose(e, []int{0, 1}, a)
	if !id.Equal(a) {
		t.Fatal("identity Transpose changed the array")
	}
	// Rank-3 cyclic permutation: axis j of result = axis perm[j] of a.
	b := array.New(shape.Of(2, 3, 4))
	for i := range b.Data() {
		b.Data()[i] = float64(i)
	}
	cyc := transpose(e, []int{1, 2, 0}, b)
	if !cyc.Shape().Equal(shape.Of(3, 4, 2)) {
		t.Fatalf("cyclic Transpose shape = %v", cyc.Shape())
	}
	if cyc.At(shape.Index{1, 2, 0}) != b.At(shape.Index{0, 1, 2}) {
		t.Fatal("cyclic Transpose values wrong")
	}
}

func TestTransposeBadPermPanics(t *testing.T) {
	e := wl.Default()
	a := array.New(shape.Of(2, 2))
	for _, perm := range [][]int{{0}, {0, 0}, {0, 2}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Transpose(%v) did not panic", perm)
				}
			}()
			transpose(e, perm, a)
		}()
	}
}

// Property: Transpose twice with the reverse permutation is the identity.
func TestTransposeInvolutionQuick(t *testing.T) {
	e := wl.Default()
	f := func(vals [6]int8) bool {
		data := make([]float64, 6)
		for i, v := range vals {
			data[i] = float64(v)
		}
		a := array.FromSlice(shape.Of(2, 3), data)
		return transpose(e, nil, transpose(e, nil, a)).Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestConcat(t *testing.T) {
	e := wl.Default()
	a := array.FromSlice(shape.Of(2, 2), []float64{1, 2, 3, 4})
	b := array.FromSlice(shape.Of(1, 2), []float64{5, 6})
	v := concat(e, 0, a, b)
	if !v.Equal(array.FromSlice(shape.Of(3, 2), []float64{1, 2, 3, 4, 5, 6})) {
		t.Fatalf("Concat axis 0 = %v", v)
	}
	c := array.FromSlice(shape.Of(2, 1), []float64{9, 8})
	h := concat(e, 1, a, c)
	if !h.Equal(array.FromSlice(shape.Of(2, 3), []float64{1, 2, 9, 3, 4, 8})) {
		t.Fatalf("Concat axis 1 = %v", h)
	}
}

func TestConcatPanics(t *testing.T) {
	e := wl.Default()
	a := array.New(shape.Of(2, 2))
	for name, f := range map[string]func(){
		"rank":     func() { concat(e, 0, a, array.New(shape.Of(2))) },
		"axis":     func() { concat(e, 5, a, a) },
		"mismatch": func() { concat(e, 0, a, array.New(shape.Of(2, 3))) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Concat %s case did not panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: Take and Drop are Tile special cases.
func TestTileGeneralizesTakeDropQuick(t *testing.T) {
	e := wl.Default()
	f := func(posRaw [3]uint8) bool {
		a := ramp3(5, 6, 7)
		pos := []int{int(posRaw[0] % 3), int(posRaw[1] % 3), int(posRaw[2] % 3)}
		size := shape.Of(2, 3, 4)
		win := tile(e, size, pos, a)
		// Tile(shp, 0, a) == Take(shp, a)
		if !tile(e, size, []int{0, 0, 0}, a).Equal(Take(e, size, a)) {
			return false
		}
		// Tile(shape-pos, pos, a) == Drop(pos, a)
		rest := shape.Shape(shape.Sub([]int(a.Shape()), pos))
		if !tile(e, rest, pos, a).Equal(Drop(e, pos, a)) {
			return false
		}
		// Window contents.
		for i := 0; i < 2; i++ {
			for j := 0; j < 3; j++ {
				for k := 0; k < 4; k++ {
					if win.At3(i, j, k) != a.At3(i+pos[0], j+pos[1], k+pos[2]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestTilePanics(t *testing.T) {
	e := wl.Default()
	a := ramp3(4, 4, 4)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Tile did not panic")
		}
	}()
	tile(e, shape.Of(3, 3, 3), []int{2, 2, 2}, a)
}

func TestIota(t *testing.T) {
	e := wl.Default()
	if got := iota(e, 5); !got.Equal(array.FromSlice(shape.Of(5), []float64{0, 1, 2, 3, 4})) {
		t.Fatalf("Iota = %v", got)
	}
	if got := iota(e, 0); got.Size() != 0 {
		t.Fatalf("Iota(0) size = %d", got.Size())
	}
}

// An APL-style one-liner built from the extended library: the mean of the
// positive elements, computed entirely with array operations.
func TestAPLStyleComposition(t *testing.T) {
	e := wl.Default()
	a := array.FromSlice(shape.Of(6), []float64{3, -1, 4, -1, 5, -9})
	pos := Greater(e, a, array.New(shape.Of(6))) // a > 0
	masked := Mul(e, a, pos)                     // a × (a > 0)
	mean := Sum(e, masked) / Sum(e, pos)         // Σmasked / Σmask
	if math.Abs(mean-4) > 1e-15 {                // (3+4+5)/3
		t.Fatalf("APL composition = %v, want 4", mean)
	}
}
