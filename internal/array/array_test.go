package array

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/shape"
)

func TestNewZeroInitialized(t *testing.T) {
	a := New(shape.Of(2, 3))
	if a.Dim() != 2 || a.Size() != 6 {
		t.Fatalf("Dim/Size = %d/%d", a.Dim(), a.Size())
	}
	for _, v := range a.Data() {
		if v != 0 {
			t.Fatal("New not zero-initialized")
		}
	}
}

func TestNewInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with negative extent did not panic")
		}
	}()
	New(shape.Of(2, -1))
}

func TestNewFilled(t *testing.T) {
	a := NewFilled(shape.Of(4), 2.5)
	for _, v := range a.Data() {
		if v != 2.5 {
			t.Fatal("NewFilled wrong value")
		}
	}
}

func TestScalar(t *testing.T) {
	s := Scalar(3.14)
	if s.Dim() != 0 || s.Size() != 1 {
		t.Fatalf("scalar Dim/Size = %d/%d", s.Dim(), s.Size())
	}
	if s.At(shape.Index{}) != 3.14 {
		t.Fatal("scalar At failed")
	}
}

func TestWrapNoCopy(t *testing.T) {
	buf := []float64{1, 2, 3, 4}
	a := Wrap(shape.Of(2, 2), buf)
	buf[3] = 9
	if a.At(shape.Index{1, 1}) != 9 {
		t.Fatal("Wrap copied the buffer")
	}
}

func TestWrapLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Wrap with wrong buffer length did not panic")
		}
	}()
	Wrap(shape.Of(2, 2), make([]float64, 3))
}

func TestFromSliceCopies(t *testing.T) {
	src := []float64{1, 2, 3, 4, 5, 6}
	a := FromSlice(shape.Of(2, 3), src)
	src[0] = 99
	if a.At(shape.Index{0, 0}) != 1 {
		t.Fatal("FromSlice aliases its input")
	}
	if a.At(shape.Index{1, 2}) != 6 {
		t.Fatal("FromSlice row-major order wrong")
	}
}

func TestFromSliceSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(shape.Of(2, 2), []float64{1})
}

func TestAtSetRoundTrip(t *testing.T) {
	a := New(shape.Of(3, 4, 5))
	idx := shape.Index{2, 1, 3}
	a.Set(idx, 42)
	if a.At(idx) != 42 {
		t.Fatal("At/Set round trip failed")
	}
	// Row-major position check against the flat buffer.
	if a.Data()[2*20+1*5+3] != 42 {
		t.Fatal("Set wrote to the wrong flat position")
	}
}

func TestAt3Set3MatchGeneric(t *testing.T) {
	a := New(shape.Of(3, 4, 5))
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 5; k++ {
				a.Set3(i, j, k, float64(i*100+j*10+k))
			}
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			for k := 0; k < 5; k++ {
				want := float64(i*100 + j*10 + k)
				if a.At3(i, j, k) != want || a.At(shape.Index{i, j, k}) != want {
					t.Fatalf("At3/At mismatch at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

func TestAt3WrongRankPanics(t *testing.T) {
	a := New(shape.Of(2, 2))
	defer func() {
		if recover() == nil {
			t.Error("At3 on rank-2 array did not panic")
		}
	}()
	a.At3(0, 0, 0)
}

func TestFillZero(t *testing.T) {
	a := New(shape.Of(10))
	a.Fill(7)
	for _, v := range a.Data() {
		if v != 7 {
			t.Fatal("Fill failed")
		}
	}
	a.Zero()
	for _, v := range a.Data() {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewFilled(shape.Of(2, 2), 1)
	b := a.Clone()
	b.Set(shape.Index{0, 0}, 5)
	if a.At(shape.Index{0, 0}) != 1 {
		t.Fatal("Clone aliases original")
	}
	if !a.Shape().Equal(b.Shape()) {
		t.Fatal("Clone changed shape")
	}
}

func TestEqual(t *testing.T) {
	a := FromSlice(shape.Of(2, 2), []float64{1, 2, 3, 4})
	b := FromSlice(shape.Of(2, 2), []float64{1, 2, 3, 4})
	if !a.Equal(b) {
		t.Fatal("equal arrays reported unequal")
	}
	b.Set(shape.Index{1, 1}, 5)
	if a.Equal(b) {
		t.Fatal("unequal arrays reported equal")
	}
	if a.Equal(FromSlice(shape.Of(4), []float64{1, 2, 3, 4})) {
		t.Fatal("shape ignored by Equal")
	}
}

func TestEqualNaN(t *testing.T) {
	a := FromSlice(shape.Of(1), []float64{math.NaN()})
	if a.Equal(a.Clone()) {
		t.Fatal("NaN should compare unequal, like ==")
	}
}

func TestApproxEqual(t *testing.T) {
	a := FromSlice(shape.Of(2), []float64{1, 2})
	b := FromSlice(shape.Of(2), []float64{1.0000001, 2})
	if !a.ApproxEqual(b, 1e-6) {
		t.Fatal("ApproxEqual too strict")
	}
	if a.ApproxEqual(b, 1e-9) {
		t.Fatal("ApproxEqual too lax")
	}
	if a.ApproxEqual(FromSlice(shape.Of(1), []float64{1}), 1) {
		t.Fatal("ApproxEqual ignored shape")
	}
	nan := FromSlice(shape.Of(2), []float64{math.NaN(), 2})
	if a.ApproxEqual(nan, 1) || nan.ApproxEqual(a, 1) {
		t.Fatal("ApproxEqual must reject NaN")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromSlice(shape.Of(3), []float64{1, 2, 3})
	b := FromSlice(shape.Of(3), []float64{1, 2.5, 2})
	if got := a.MaxAbsDiff(b); got != 1 {
		t.Fatalf("MaxAbsDiff = %g, want 1", got)
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := FromSlice(shape.Of(2), []float64{1, 2})
	if s := small.String(); !strings.Contains(s, "[2]") || !strings.Contains(s, "1 2") {
		t.Errorf("small String = %q", s)
	}
	large := New(shape.Of(100))
	if s := large.String(); !strings.Contains(s, "100 elements") {
		t.Errorf("large String = %q", s)
	}
}

// Property: Clone always compares Equal (absent NaN) and never aliases.
func TestCloneQuick(t *testing.T) {
	f := func(vals [8]float64, mutate uint8) bool {
		for _, v := range vals {
			if math.IsNaN(v) {
				return true // skip: NaN != NaN by design
			}
		}
		a := FromSlice(shape.Of(2, 4), vals[:])
		b := a.Clone()
		if !a.Equal(b) {
			return false
		}
		i := int(mutate) % 8
		b.Data()[i] = b.Data()[i] + 1
		return !a.Equal(b) || vals[i]+1 == vals[i] // allow +1 == identity at huge magnitudes
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkAt3(b *testing.B) {
	a := New(shape.Of(64, 64, 64))
	b.ReportAllocs()
	var s float64
	for i := 0; i < b.N; i++ {
		s += a.At3(32, 16, 8)
	}
	_ = s
}
