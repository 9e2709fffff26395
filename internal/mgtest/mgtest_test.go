package mgtest

import (
	"math"
	"testing"

	"repro/internal/array"
)

func TestNewFilled(t *testing.T) {
	a := NewFilled([]int{4}, 2.5)
	for _, v := range a.Data() {
		if v != 2.5 {
			t.Fatal("NewFilled wrong value")
		}
	}
}

func TestApproxEqual(t *testing.T) {
	a := array.FromSlice([]int{2}, []float64{1, 2})
	b := array.FromSlice([]int{2}, []float64{1.0000001, 2})
	if !ApproxEqual(a, b, 1e-6) {
		t.Fatal("ApproxEqual too strict")
	}
	if ApproxEqual(a, b, 1e-9) {
		t.Fatal("ApproxEqual too lax")
	}
	if ApproxEqual(a, array.FromSlice([]int{1}, []float64{1}), 1) {
		t.Fatal("ApproxEqual ignored shape")
	}
	nan := array.FromSlice([]int{2}, []float64{math.NaN(), 2})
	if ApproxEqual(a, nan, 1) || ApproxEqual(nan, a, 1) {
		t.Fatal("ApproxEqual must reject NaN")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := array.FromSlice([]int{3}, []float64{1, 2, 3})
	b := array.FromSlice([]int{3}, []float64{1, 2.5, 2})
	if got := MaxAbsDiff(a, b); got != 1 {
		t.Fatalf("MaxAbsDiff = %g, want 1", got)
	}
}
