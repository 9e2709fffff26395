// Package shape provides n-dimensional shape and index-vector algebra.
//
// It is the lowest substrate of the SAC-style array system: every array,
// WITH-loop generator, and stencil in this repository describes its extent
// and positions with the vectors defined here. A Shape is the extent of a
// rectangular n-dimensional index space; an Index is a position inside one.
// Both are plain []int values so that callers can use literals freely, with
// the algebra (linearization, strides, element-wise arithmetic) collected in
// this package.
//
// All arrays in the repository are dense and row-major: the last axis varies
// fastest, exactly like C and like the memory layout SAC compiles to.
package shape

import (
	"fmt"
	"strings"
)

// Shape is the extent of an n-dimensional rectangular index space.
// Every component must be non-negative; a zero component denotes an empty
// space. The rank of the space is len(Shape).
type Shape []int

// Index is a position in an n-dimensional index space. Component j must
// satisfy 0 <= Index[j] < Shape[j] to be in bounds.
type Index []int

// Of builds a Shape from its arguments, for readable call sites:
// shape.Of(4, 4, 4).
func Of(extents ...int) Shape { return Shape(extents) }

// Rank returns the number of axes.
func (s Shape) Rank() int { return len(s) }

// Size returns the total number of elements, i.e. the product of all
// extents. The empty (rank-0) shape has size 1: it describes a scalar.
func (s Shape) Size() int {
	n := 1
	for _, e := range s {
		n *= e
	}
	return n
}

// Valid reports whether every extent is non-negative.
func (s Shape) Valid() bool {
	for _, e := range s {
		if e < 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// Equal reports whether s and t have the same rank and extents.
func (s Shape) Equal(t Shape) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Strides returns the row-major strides of s: the linear distance between
// consecutive elements along each axis. For shape [a b c] the strides are
// [b*c, c, 1].
func (s Shape) Strides() []int {
	st := make([]int, len(s))
	acc := 1
	for j := len(s) - 1; j >= 0; j-- {
		st[j] = acc
		acc *= s[j]
	}
	return st
}

// Offset linearizes idx in the row-major order defined by s.
// It panics if idx has a different rank or is out of bounds; bounds errors
// in index computations are programming errors, mirroring Go's own slice
// indexing discipline.
func (s Shape) Offset(idx Index) int {
	if len(idx) != len(s) {
		panic(fmt.Sprintf("shape: rank mismatch: index %v vs shape %v", idx, s))
	}
	off := 0
	for j, e := range s {
		i := idx[j]
		if i < 0 || i >= e {
			panic(fmt.Sprintf("shape: index %v out of bounds for shape %v (axis %d)", idx, s, j))
		}
		off = off*e + i
	}
	return off
}

// String renders the shape in SAC vector notation, e.g. "[4,4,4]".
func (s Shape) String() string { return vecString([]int(s)) }

// String renders the index in SAC vector notation, e.g. "[0,1,2]".
func (i Index) String() string { return vecString([]int(i)) }

func vecString(v []int) string {
	var b strings.Builder
	b.WriteByte('[')
	for j, e := range v {
		if j > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", e)
	}
	b.WriteByte(']')
	return b.String()
}

// --- element-wise vector algebra -------------------------------------------
//
// SAC programs manipulate index vectors with ordinary arithmetic
// (shape(a)/str, str*iv, iv-pos, shape(rc)+1, ...). The helpers below are
// the Go spellings of those expressions. All of them panic on rank
// mismatch, which is always a programming error.

func checkRank(op string, a, b []int) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("shape: %s: rank mismatch %v vs %v", op, a, b))
	}
}

// Add returns a+b element-wise.
func Add(a, b []int) []int {
	checkRank("Add", a, b)
	c := make([]int, len(a))
	for j := range a {
		c[j] = a[j] + b[j]
	}
	return c
}

// Sub returns a-b element-wise.
func Sub(a, b []int) []int {
	checkRank("Sub", a, b)
	c := make([]int, len(a))
	for j := range a {
		c[j] = a[j] - b[j]
	}
	return c
}

// AddScalar returns a+k in every component.
func AddScalar(a []int, k int) []int {
	c := make([]int, len(a))
	for j := range a {
		c[j] = a[j] + k
	}
	return c
}

// MulScalar returns a*k in every component.
func MulScalar(a []int, k int) []int {
	c := make([]int, len(a))
	for j := range a {
		c[j] = a[j] * k
	}
	return c
}

// DivScalar returns a/k in every component (integer division).
func DivScalar(a []int, k int) []int {
	c := make([]int, len(a))
	for j := range a {
		c[j] = a[j] / k
	}
	return c
}

// Replicate returns a vector of the given rank with every component equal
// to v. It is the implicit scalar-to-vector replication that SAC performs
// in WITH-loop generators ("simple scalars may be used instead of vectors").
func Replicate(rank, v int) []int {
	c := make([]int, rank)
	for j := range c {
		c[j] = v
	}
	return c
}

// Zeros returns the all-zero vector of the given rank — SAC's "0*shape(a)".
func Zeros(rank int) []int { return make([]int, rank) }

// Ones returns the all-one vector of the given rank.
func Ones(rank int) []int { return Replicate(rank, 1) }

// AllLessEq reports whether a[j] <= b[j] for every axis.
func AllLessEq(a, b []int) bool {
	checkRank("AllLessEq", a, b)
	for j := range a {
		if a[j] > b[j] {
			return false
		}
	}
	return true
}
