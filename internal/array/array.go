// Package array implements dense n-dimensional float64 arrays as first-class
// values — the Go counterpart of SAC's double[+] type.
//
// Arrays of any rank share one representation: a flat row-major []float64
// plus a shape vector. Rank-0 arrays are scalars with a single element.
// The package deliberately contains no compound array operations: exactly
// like SAC, those live in the array library (internal/aplib) and are
// expressed through WITH-loops (internal/withloop). Here there are only the
// built-in primitives the SAC core language provides — dim, shape, element
// selection — plus the constructors and equality helpers everything else is
// built from.
package array

import (
	"fmt"
	"strings"

	"repro/internal/shape"
)

// Array is a dense n-dimensional array of float64 in row-major order.
// The zero value is an invalid array; use the constructors.
type Array struct {
	shp  shape.Shape
	data []float64
}

// New allocates a zero-initialized array of the given shape.
func New(shp shape.Shape) *Array {
	if !shp.Valid() {
		panic(fmt.Sprintf("array: invalid shape %v", shp))
	}
	return &Array{shp: shp.Clone(), data: make([]float64, shp.Size())}
}

// Wrap builds an array around an existing flat buffer without copying.
// len(data) must equal shp.Size(). The caller must not use data afterwards
// except through the returned array.
func Wrap(shp shape.Shape, data []float64) *Array {
	return new(Array).Rewrap(shp, data)
}

// Rewrap re-points an existing header at a buffer, exactly as Wrap builds
// a fresh one, and returns it — the memory manager's way of recycling the
// descriptor of a released array together with its storage. The shape
// vector is kept when it already equals shp and replaced (never
// overwritten) otherwise, so a shape slice obtained during the header's
// previous life stays intact.
func (a *Array) Rewrap(shp shape.Shape, data []float64) *Array {
	// The panics format shp.String(), not shp: boxing the slice for %v
	// would make every caller's shape vector escape to the heap.
	if !shp.Valid() {
		panic(fmt.Sprintf("array: invalid shape %s", shp.String()))
	}
	if len(data) != shp.Size() {
		panic(fmt.Sprintf("array: Wrap: buffer length %d does not match shape %s (size %d)",
			len(data), shp.String(), shp.Size()))
	}
	if a.shp == nil || !a.shp.Equal(shp) {
		a.shp = shp.Clone()
	}
	a.data = data
	return a
}

// FromSlice builds an array of the given shape from a row-major element
// slice, copying the data.
func FromSlice(shp shape.Shape, elems []float64) *Array {
	if len(elems) != shp.Size() {
		panic(fmt.Sprintf("array: FromSlice: %d elements for shape %v (size %d)",
			len(elems), shp, shp.Size()))
	}
	a := New(shp)
	copy(a.data, elems)
	return a
}

// Scalar builds a rank-0 array holding val.
func Scalar(val float64) *Array {
	return &Array{shp: shape.Shape{}, data: []float64{val}}
}

// Dim returns the rank of the array — SAC's dim(array).
func (a *Array) Dim() int { return a.shp.Rank() }

// Shape returns the array's shape — SAC's shape(array). The returned slice
// is the array's own; callers must not modify it.
func (a *Array) Shape() shape.Shape { return a.shp }

// Size returns the total number of elements.
func (a *Array) Size() int { return len(a.data) }

// Data returns the underlying flat row-major buffer. Hot kernels index it
// directly; the buffer is the array's own storage, not a copy.
func (a *Array) Data() []float64 { return a.data }

// At returns the element at the given index vector — SAC's array[iv].
// It panics on out-of-bounds access.
func (a *Array) At(idx shape.Index) float64 { return a.data[a.shp.Offset(idx)] }

// Set stores val at the given index vector. It panics on out-of-bounds
// access.
func (a *Array) Set(idx shape.Index, val float64) { a.data[a.shp.Offset(idx)] = val }

// At3 returns the element at (i, j, k) of a rank-3 array without building an
// index vector. It panics if the array is not rank 3.
func (a *Array) At3(i, j, k int) float64 {
	if a.shp.Rank() != 3 {
		panic(fmt.Sprintf("array: At3 on rank-%d array", a.shp.Rank()))
	}
	return a.data[(i*a.shp[1]+j)*a.shp[2]+k]
}

// Set3 stores val at (i, j, k) of a rank-3 array.
func (a *Array) Set3(i, j, k int, val float64) {
	if a.shp.Rank() != 3 {
		panic(fmt.Sprintf("array: Set3 on rank-%d array", a.shp.Rank()))
	}
	a.data[(i*a.shp[1]+j)*a.shp[2]+k] = val
}

// Fill sets every element to val.
func (a *Array) Fill(val float64) {
	d := a.data
	for i := range d {
		d[i] = val
	}
}

// Zero sets every element to 0.
func (a *Array) Zero() {
	clear(a.data)
}

// Clone returns a deep copy of the array.
func (a *Array) Clone() *Array {
	c := New(a.shp)
	copy(c.data, a.data)
	return c
}

// Equal reports exact (bitwise on the float64 values) equality of shape and
// contents. NaNs compare unequal, like ==.
func (a *Array) Equal(b *Array) bool {
	if !a.shp.Equal(b.shp) {
		return false
	}
	for i, v := range a.data {
		if v != b.data[i] {
			return false
		}
	}
	return true
}

// String renders small arrays fully and large arrays as a summary, so that
// failed test output stays readable.
func (a *Array) String() string {
	const limit = 64
	var b strings.Builder
	fmt.Fprintf(&b, "array%v", a.shp)
	if len(a.data) <= limit {
		b.WriteByte('{')
		for i, v := range a.data {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%g", v)
		}
		b.WriteByte('}')
	} else {
		fmt.Fprintf(&b, "{%g %g ... %g; %d elements}",
			a.data[0], a.data[1], a.data[len(a.data)-1], len(a.data))
	}
	return b.String()
}
