package aplib

import (
	"math"
	"testing"

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
