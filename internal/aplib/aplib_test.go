package aplib

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/array"
	"repro/internal/shape"
	wl "repro/internal/withloop"
)

// testEnvs covers generic (O0), dense fast-path (O1), fused (O2/O3) and a
// parallel fused configuration.
func testEnvs() []*wl.Env {
	var list []*wl.Env
	for _, opt := range []wl.OptLevel{wl.O0, wl.O1, wl.O2, wl.O3} {
		e := wl.Default()
		e.Opt = opt
		e.SeqThreshold = 0
		list = append(list, e)
	}
	p := wl.Parallel(4)
	p.SeqThreshold = 0
	list = append(list, p)
	return list
}

// ramp3 builds a rank-3 array with distinct values.
func ramp3(n0, n1, n2 int) *array.Array {
	e := wl.Default()
	shp := shape.Of(n0, n1, n2)
	return e.Genarray(shp, wl.Full(shp), func(iv shape.Index) float64 {
		return float64(iv[0]*10000 + iv[1]*100 + iv[2] + 1)
	})
}

func TestGenarrayVal(t *testing.T) {
	for _, e := range testEnvs() {
		a := GenarrayVal(e, shape.Of(3, 4), 2.5)
		for _, v := range a.Data() {
			if v != 2.5 {
				t.Fatalf("env %v: GenarrayVal wrong", e.Opt)
			}
		}
		z := GenarrayVal(e, shape.Of(2, 2), 0)
		for _, v := range z.Data() {
			if v != 0 {
				t.Fatalf("env %v: GenarrayVal(0) wrong", e.Opt)
			}
		}
	}
}

func TestCondense(t *testing.T) {
	a := ramp3(6, 4, 8)
	for _, e := range testEnvs() {
		c := Condense(e, 2, a)
		if !c.Shape().Equal(shape.Of(3, 2, 4)) {
			t.Fatalf("env %v: Condense shape = %v", e.Opt, c.Shape())
		}
		for i := 0; i < 3; i++ {
			for j := 0; j < 2; j++ {
				for k := 0; k < 4; k++ {
					if c.At3(i, j, k) != a.At3(2*i, 2*j, 2*k) {
						t.Fatalf("env %v: Condense(%d,%d,%d) = %g, want %g",
							e.Opt, i, j, k, c.At3(i, j, k), a.At3(2*i, 2*j, 2*k))
					}
				}
			}
		}
	}
}

func TestCondenseRank2GenericPath(t *testing.T) {
	e := wl.Default() // O3, but rank-2 uses the generic path
	a := array.FromSlice(shape.Of(4, 4), []float64{
		0, 1, 2, 3,
		4, 5, 6, 7,
		8, 9, 10, 11,
		12, 13, 14, 15,
	})
	c := Condense(e, 2, a)
	want := array.FromSlice(shape.Of(2, 2), []float64{0, 2, 8, 10})
	if !c.Equal(want) {
		t.Fatalf("rank-2 Condense = %v, want %v", c, want)
	}
}

func TestScatter(t *testing.T) {
	a := ramp3(3, 2, 4)
	for _, e := range testEnvs() {
		s := Scatter(e, 2, a)
		if !s.Shape().Equal(shape.Of(6, 4, 8)) {
			t.Fatalf("env %v: Scatter shape = %v", e.Opt, s.Shape())
		}
		for i := 0; i < 6; i++ {
			for j := 0; j < 4; j++ {
				for k := 0; k < 8; k++ {
					want := 0.0
					if i%2 == 0 && j%2 == 0 && k%2 == 0 {
						want = a.At3(i/2, j/2, k/2)
					}
					if s.At3(i, j, k) != want {
						t.Fatalf("env %v: Scatter(%d,%d,%d) = %g, want %g",
							e.Opt, i, j, k, s.At3(i, j, k), want)
					}
				}
			}
		}
	}
}

// Paper invariant: condense(str, scatter(str, a)) == a.
func TestCondenseScatterIdentity(t *testing.T) {
	for _, e := range testEnvs() {
		for _, str := range []int{2, 3} {
			a := ramp3(4, 3, 5)
			round := Condense(e, str, Scatter(e, str, a))
			if !round.Equal(a) {
				t.Fatalf("env %v str %d: condense∘scatter is not the identity", e.Opt, str)
			}
		}
	}
}

func TestEmbed(t *testing.T) {
	a := ramp3(2, 2, 2)
	for _, e := range testEnvs() {
		b := Embed(e, shape.Of(4, 3, 5), []int{1, 0, 2}, a)
		for i := 0; i < 4; i++ {
			for j := 0; j < 3; j++ {
				for k := 0; k < 5; k++ {
					want := 0.0
					if i >= 1 && i < 3 && j < 2 && k >= 2 && k < 4 {
						want = a.At3(i-1, j, k-2)
					}
					if b.At3(i, j, k) != want {
						t.Fatalf("env %v: Embed(%d,%d,%d) = %g, want %g",
							e.Opt, i, j, k, b.At3(i, j, k), want)
					}
				}
			}
		}
	}
}

func TestEmbedPanics(t *testing.T) {
	e := wl.Default()
	a := ramp3(2, 2, 2)
	for name, f := range map[string]func(){
		"rank":     func() { Embed(e, shape.Of(3, 3), []int{0, 0}, a) },
		"overflow": func() { Embed(e, shape.Of(3, 3, 3), []int{2, 0, 0}, a) },
		"negative": func() { Embed(e, shape.Of(4, 4, 4), []int{-1, 0, 0}, a) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Embed %s case did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestTake(t *testing.T) {
	a := ramp3(4, 5, 6)
	for _, e := range testEnvs() {
		tk := Take(e, shape.Of(2, 3, 4), a)
		for i := 0; i < 2; i++ {
			for j := 0; j < 3; j++ {
				for k := 0; k < 4; k++ {
					if tk.At3(i, j, k) != a.At3(i, j, k) {
						t.Fatalf("env %v: Take wrong at (%d,%d,%d)", e.Opt, i, j, k)
					}
				}
			}
		}
	}
}

func TestTakePanics(t *testing.T) {
	e := wl.Default()
	defer func() {
		if recover() == nil {
			t.Error("oversized Take did not panic")
		}
	}()
	Take(e, shape.Of(5, 5, 5), ramp3(4, 4, 4))
}

// Paper invariant: take(shape(a), embed(shp, 0, a)) == a.
func TestEmbedTakeIdentity(t *testing.T) {
	for _, e := range testEnvs() {
		a := ramp3(3, 4, 2)
		big := Embed(e, shape.Of(5, 6, 4), shape.Zeros(3), a)
		round := Take(e, a.Shape(), big)
		if !round.Equal(a) {
			t.Fatalf("env %v: take∘embed is not the identity", e.Opt)
		}
	}
}

func TestDrop(t *testing.T) {
	e := wl.Default()
	a := ramp3(4, 4, 4)
	d := Drop(e, []int{1, 2, 0}, a)
	if !d.Shape().Equal(shape.Of(3, 2, 4)) {
		t.Fatalf("Drop shape = %v", d.Shape())
	}
	if d.At3(0, 0, 0) != a.At3(1, 2, 0) || d.At3(2, 1, 3) != a.At3(3, 3, 3) {
		t.Fatal("Drop elements wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("oversized Drop did not panic")
		}
	}()
	Drop(e, []int{5, 0, 0}, a)
}

// Drop is the complement of Take: Drop(off, a) equals the trailing corner.
func TestTakeDropPartition(t *testing.T) {
	e := wl.Default()
	a := ramp3(4, 4, 4)
	off := []int{2, 1, 3}
	d := Drop(e, off, a)
	for i := 0; i < d.Shape()[0]; i++ {
		for j := 0; j < d.Shape()[1]; j++ {
			for k := 0; k < d.Shape()[2]; k++ {
				if d.At3(i, j, k) != a.At3(i+off[0], j+off[1], k+off[2]) {
					t.Fatal("Drop misaligned")
				}
			}
		}
	}
}

func TestArithmetic(t *testing.T) {
	for _, e := range testEnvs() {
		a := array.FromSlice(shape.Of(2, 2), []float64{1, 2, 3, 4})
		b := array.FromSlice(shape.Of(2, 2), []float64{10, 20, 30, 40})
		if got := Add(e, a, b); !got.Equal(array.FromSlice(shape.Of(2, 2), []float64{11, 22, 33, 44})) {
			t.Fatalf("env %v: Add = %v", e.Opt, got)
		}
		if got := Sub(e, b, a); !got.Equal(array.FromSlice(shape.Of(2, 2), []float64{9, 18, 27, 36})) {
			t.Fatalf("env %v: Sub = %v", e.Opt, got)
		}
		if got := Mul(e, a, a); !got.Equal(array.FromSlice(shape.Of(2, 2), []float64{1, 4, 9, 16})) {
			t.Fatalf("env %v: Mul = %v", e.Opt, got)
		}
		if got := Scale(e, 2, a); !got.Equal(array.FromSlice(shape.Of(2, 2), []float64{2, 4, 6, 8})) {
			t.Fatalf("env %v: Scale = %v", e.Opt, got)
		}
	}
}

func TestArithmeticShapeMismatchPanics(t *testing.T) {
	e := wl.Default()
	defer func() {
		if recover() == nil {
			t.Error("Add with mismatched shapes did not panic")
		}
	}()
	Add(e, array.New(shape.Of(2)), array.New(shape.Of(3)))
}

func TestReductions(t *testing.T) {
	for _, e := range testEnvs() {
		a := array.FromSlice(shape.Of(5), []float64{1, -3, 2, -0.5, 4})
		if got := Sum(e, a); math.Abs(got-3.5) > 1e-15 {
			t.Fatalf("env %v: Sum = %g", e.Opt, got)
		}
		if got := sumSq(e, a); math.Abs(got-(1+9+4+0.25+16)) > 1e-12 {
			t.Fatalf("env %v: SumSq = %g", e.Opt, got)
		}
		if got := MaxAbs(e, a); got != 4 {
			t.Fatalf("env %v: MaxAbs = %g", e.Opt, got)
		}
		wantL2 := math.Sqrt((1 + 9 + 4 + 0.25 + 16) / 5)
		if got := L2Norm(e, a); math.Abs(got-wantL2) > 1e-15 {
			t.Fatalf("env %v: L2Norm = %g, want %g", e.Opt, got, wantL2)
		}
	}
}

func TestRotate(t *testing.T) {
	e := wl.Default()
	a := array.FromSlice(shape.Of(4), []float64{1, 2, 3, 4})
	if got := Rotate(e, 0, 1, a); !got.Equal(array.FromSlice(shape.Of(4), []float64{4, 1, 2, 3})) {
		t.Fatalf("Rotate +1 = %v", got)
	}
	if got := Rotate(e, 0, -1, a); !got.Equal(array.FromSlice(shape.Of(4), []float64{2, 3, 4, 1})) {
		t.Fatalf("Rotate -1 = %v", got)
	}
	if got := Rotate(e, 0, 4, a); !got.Equal(a) {
		t.Fatalf("Rotate full cycle = %v", got)
	}
	if got := Rotate(e, 0, 9, a); !got.Equal(Rotate(e, 0, 1, a)) {
		t.Fatal("Rotate does not reduce offset modulo extent")
	}
}

func TestRotateAxis(t *testing.T) {
	e := wl.Default()
	a := array.FromSlice(shape.Of(2, 3), []float64{1, 2, 3, 4, 5, 6})
	got := Rotate(e, 1, 1, a)
	want := array.FromSlice(shape.Of(2, 3), []float64{3, 1, 2, 6, 4, 5})
	if !got.Equal(want) {
		t.Fatalf("Rotate axis 1 = %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("Rotate with bad axis did not panic")
		}
	}()
	Rotate(e, 2, 1, a)
}

func TestShift(t *testing.T) {
	e := wl.Default()
	a := array.FromSlice(shape.Of(4), []float64{1, 2, 3, 4})
	if got := Shift(e, 0, 1, 0, a); !got.Equal(array.FromSlice(shape.Of(4), []float64{0, 1, 2, 3})) {
		t.Fatalf("Shift +1 = %v", got)
	}
	if got := Shift(e, 0, -2, 9, a); !got.Equal(array.FromSlice(shape.Of(4), []float64{3, 4, 9, 9})) {
		t.Fatalf("Shift -2 = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Shift with bad axis did not panic")
		}
	}()
	Shift(e, -1, 1, 0, a)
}

// Rotate by n and -n compose to the identity.
func TestRotateInverseQuick(t *testing.T) {
	e := wl.Default()
	f := func(vals [6]float64, offRaw int8) bool {
		for _, v := range vals {
			if math.IsNaN(v) {
				return true
			}
		}
		a := array.FromSlice(shape.Of(2, 3), vals[:])
		off := int(offRaw)
		return Rotate(e, 1, -off, Rotate(e, 1, off, a)).Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// All optimization levels agree bit-for-bit on every library function.
func TestFusedMatchesGenericQuick(t *testing.T) {
	ref := wl.Default()
	ref.Opt = wl.O0
	ref.SeqThreshold = 0
	fast := wl.Default() // O3
	fast.SeqThreshold = 0
	f := func(dims [3]uint8, strRaw uint8) bool {
		n0, n1, n2 := int(dims[0]%3)+1, int(dims[1]%3)+1, int(dims[2]%3)+1
		str := int(strRaw%2) + 2
		a := ramp3(n0*str, n1*str, n2*str)
		if !Condense(ref, str, a).Equal(Condense(fast, str, a)) {
			return false
		}
		small := ramp3(n0, n1, n2)
		if !Scatter(ref, str, small).Equal(Scatter(fast, str, small)) {
			return false
		}
		big := shape.Of(n0+2, n1+1, n2+3)
		pos := []int{1, 0, 2}
		if !Embed(ref, big, pos, small).Equal(Embed(fast, big, pos, small)) {
			return false
		}
		if !Take(ref, shape.Of(n0, n1, n2), a).Equal(Take(fast, shape.Of(n0, n1, n2), a)) {
			return false
		}
		if Sum(ref, a) != Sum(fast, a) || MaxAbs(ref, a) != MaxAbs(fast, a) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAddFused(b *testing.B) {
	e := wl.Default()
	a := ramp3(64, 64, 64)
	c := ramp3(64, 64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := Add(e, a, c)
		e.Release(out)
	}
}

func BenchmarkAddGeneric(b *testing.B) {
	e := wl.Default()
	e.Opt = wl.O1
	a := ramp3(64, 64, 64)
	c := ramp3(64, 64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out := Add(e, a, c)
		e.Release(out)
	}
}
