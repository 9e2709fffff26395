// Package mgtest holds the test oracles that several packages' tests
// share: array comparisons with a tolerance, the executable specification
// of the paper's Fig. 2 V-cycle, and a strict parser of the Prometheus
// text format. Like net/http/httptest it is for tests only: no non-test
// package may import it, and each of its exports has a test caller in
// another package (the root package's TestExportsUsed holds both). It
// imports nothing of the module but internal/array, so the in-package
// tests of every package except array and shape can use it.
package mgtest

import (
	"fmt"
	"math"

	"repro/internal/array"
)

// NewFilled allocates an array of the given shape with every element set
// to val.
func NewFilled(shp []int, val float64) *array.Array {
	a := array.New(shp)
	a.Fill(val)
	return a
}

// ApproxEqual reports whether a and b have the same shape and every pair
// of elements differs by at most tol in absolute value.
func ApproxEqual(a, b *array.Array, tol float64) bool {
	if !a.Shape().Equal(b.Shape()) {
		return false
	}
	bd := b.Data()
	for i, v := range a.Data() {
		if d := math.Abs(v - bd[i]); !(d <= tol) { // NaN-propagating
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the largest absolute element-wise difference between
// a and b. The shapes must be equal.
func MaxAbsDiff(a, b *array.Array) float64 {
	if !a.Shape().Equal(b.Shape()) {
		panic(fmt.Sprintf("mgtest: MaxAbsDiff: shape mismatch %v vs %v", a.Shape(), b.Shape()))
	}
	bd := b.Data()
	m := 0.0
	for i, v := range a.Data() {
		if d := math.Abs(v - bd[i]); d > m {
			m = d
		}
	}
	return m
}
