// The wider SAC standard library. Beyond the functions of the paper's
// Fig. 10, the paper describes the array library as providing
// "element-wise extensions of arithmetic and relational operators, typical
// reduction operations like sum and product, various subarray selection
// facilities, as well as shift and rotate operations". This file fills in
// that catalogue: relational operators (boolean arrays are 0.0/1.0, as in
// APL), the remaining reductions, subarray selection (Tile), structural
// operations (Reshape, Transpose, Concat), and the APL staples Iota and
// Where. Everything is defined through the WITH-loop engine, so all of it
// is implicitly parallel and obeys the environment's optimization level.
package aplib

import (
	"fmt"
	"math"

	"repro/internal/array"
	"repro/internal/shape"
	wl "repro/internal/withloop"
)

// --- element-wise relational operators (APL booleans: 0.0 / 1.0) ---------------

func boolVal(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Eq returns the element-wise a == b indicator array.
func Eq(e *wl.Env, a, b *array.Array) *array.Array {
	return binary(e, "Eq", a, b, func(x, y float64) float64 { return boolVal(x == y) })
}

// Less returns the element-wise a < b indicator array.
func Less(e *wl.Env, a, b *array.Array) *array.Array {
	return binary(e, "Less", a, b, func(x, y float64) float64 { return boolVal(x < y) })
}

// LessEq returns the element-wise a <= b indicator array.
func LessEq(e *wl.Env, a, b *array.Array) *array.Array {
	return binary(e, "LessEq", a, b, func(x, y float64) float64 { return boolVal(x <= y) })
}

// Greater returns the element-wise a > b indicator array.
func Greater(e *wl.Env, a, b *array.Array) *array.Array {
	return binary(e, "Greater", a, b, func(x, y float64) float64 { return boolVal(x > y) })
}

// Where selects element-wise: cond ? a : b, where cond is an indicator
// array (non-zero selects a).
func Where(e *wl.Env, cond, a, b *array.Array) *array.Array {
	checkSameShape("Where", cond, a)
	checkSameShape("Where", a, b)
	if fused(e) {
		out := e.NewArrayDirty(a.Shape())
		od, cd, ad, bd := out.Data(), cond.Data(), a.Data(), b.Data()
		e.Sched.For(len(od), e.SeqThreshold, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				if cd[i] != 0 {
					od[i] = ad[i]
				} else {
					od[i] = bd[i]
				}
			}
		})
		return out
	}
	shp := a.Shape()
	return e.Genarray(shp, wl.Full(shp), func(iv shape.Index) float64 {
		if cond.At(iv) != 0 {
			return a.At(iv)
		}
		return b.At(iv)
	})
}

// Abs returns |a| element-wise.
func Abs(e *wl.Env, a *array.Array) *array.Array {
	shp := a.Shape()
	return e.Genarray(shp, wl.Full(shp), func(iv shape.Index) float64 {
		return math.Abs(a.At(iv))
	})
}

// Neg returns -a element-wise.
func Neg(e *wl.Env, a *array.Array) *array.Array { return Scale(e, -1, a) }

// --- reductions -----------------------------------------------------------------

// Product folds * over all elements (neutral element 1).
func Product(e *wl.Env, a *array.Array) float64 {
	if fused(e) {
		d := a.Data()
		return e.Sched.Reduce(len(d), e.SeqThreshold, 1,
			func(lo, hi int) float64 {
				p := 1.0
				for i := lo; i < hi; i++ {
					p *= d[i]
				}
				return p
			}, func(x, y float64) float64 { return x * y })
	}
	shp := a.Shape()
	return e.Fold(shp, wl.Full(shp), func(x, y float64) float64 { return x * y }, 1,
		func(iv shape.Index) float64 { return a.At(iv) })
}

// MinVal folds min over all elements. Panics on an empty array (no finite
// neutral element is universal; SAC's minval has the same restriction).
func MinVal(e *wl.Env, a *array.Array) float64 {
	if a.Size() == 0 {
		panic("aplib: MinVal of an empty array")
	}
	shp := a.Shape()
	return e.Fold(shp, wl.Full(shp), math.Min, math.Inf(1),
		func(iv shape.Index) float64 { return a.At(iv) })
}

// MaxVal folds max over all elements. Panics on an empty array.
func MaxVal(e *wl.Env, a *array.Array) float64 {
	if a.Size() == 0 {
		panic("aplib: MaxVal of an empty array")
	}
	shp := a.Shape()
	return e.Fold(shp, wl.Full(shp), math.Max, math.Inf(-1),
		func(iv shape.Index) float64 { return a.At(iv) })
}

// All reports whether every element is non-zero (APL ∧/).
func All(e *wl.Env, a *array.Array) bool {
	shp := a.Shape()
	v := e.Fold(shp, wl.Full(shp), math.Min, 1,
		func(iv shape.Index) float64 { return boolVal(a.At(iv) != 0) })
	return v != 0
}

// Any reports whether at least one element is non-zero (APL ∨/).
func Any(e *wl.Env, a *array.Array) bool {
	shp := a.Shape()
	v := e.Fold(shp, wl.Full(shp), math.Max, 0,
		func(iv shape.Index) float64 { return boolVal(a.At(iv) != 0) })
	return v != 0
}

// SumAxis reduces a along one axis with +, producing an array of rank-1
// lower (the sum over rows/columns/planes).
func SumAxis(e *wl.Env, axis int, a *array.Array) *array.Array {
	if axis < 0 || axis >= a.Dim() {
		panic(fmt.Sprintf("aplib: SumAxis: axis %d out of range for rank %d", axis, a.Dim()))
	}
	inShp := a.Shape()
	outShp := make(shape.Shape, 0, a.Dim()-1)
	for j, ext := range inShp {
		if j != axis {
			outShp = append(outShp, ext)
		}
	}
	n := inShp[axis]
	return e.Genarray(outShp, wl.Full(outShp), func(iv shape.Index) float64 {
		full := make(shape.Index, a.Dim())
		copy(full[:axis], iv[:axis])
		copy(full[axis+1:], iv[axis:])
		s := 0.0
		for i := 0; i < n; i++ {
			full[axis] = i
			s += a.At(full)
		}
		return s
	})
}

// --- structural operations --------------------------------------------------------

// Reshape reinterprets a's elements (row-major order preserved) under a
// new shape of equal size.
func Reshape(e *wl.Env, shp shape.Shape, a *array.Array) *array.Array {
	if shp.Size() != a.Size() {
		panic(fmt.Sprintf("aplib: Reshape: %v (size %d) incompatible with %v (size %d)",
			shp, shp.Size(), a.Shape(), a.Size()))
	}
	out := e.NewArrayDirty(shp)
	copy(out.Data(), a.Data())
	return out
}

// Transpose permutes a's axes: out[iv] = a[iv permuted by perm], where
// axis j of the result is axis perm[j] of the argument. Transpose(e, nil, a)
// reverses the axes (the APL default).
func Transpose(e *wl.Env, perm []int, a *array.Array) *array.Array {
	rank := a.Dim()
	if perm == nil {
		perm = make([]int, rank)
		for j := range perm {
			perm[j] = rank - 1 - j
		}
	}
	if len(perm) != rank {
		panic(fmt.Sprintf("aplib: Transpose: permutation %v does not match rank %d", perm, rank))
	}
	seen := make([]bool, rank)
	for _, p := range perm {
		if p < 0 || p >= rank || seen[p] {
			panic(fmt.Sprintf("aplib: Transpose: %v is not a permutation of axes 0..%d", perm, rank-1))
		}
		seen[p] = true
	}
	inShp := a.Shape()
	outShp := make(shape.Shape, rank)
	for j := range perm {
		outShp[j] = inShp[perm[j]]
	}
	return e.Genarray(outShp, wl.Full(outShp), func(iv shape.Index) float64 {
		src := make(shape.Index, rank)
		for j, p := range perm {
			src[p] = iv[j]
		}
		return a.At(src)
	})
}

// Concat concatenates a and b along the given axis. All other extents
// must agree.
func Concat(e *wl.Env, axis int, a, b *array.Array) *array.Array {
	if a.Dim() != b.Dim() {
		panic(fmt.Sprintf("aplib: Concat: rank mismatch %d vs %d", a.Dim(), b.Dim()))
	}
	if axis < 0 || axis >= a.Dim() {
		panic(fmt.Sprintf("aplib: Concat: axis %d out of range for rank %d", axis, a.Dim()))
	}
	as, bs := a.Shape(), b.Shape()
	for j := range as {
		if j != axis && as[j] != bs[j] {
			panic(fmt.Sprintf("aplib: Concat: shapes %v and %v disagree off axis %d", as, bs, axis))
		}
	}
	outShp := as.Clone()
	outShp[axis] = as[axis] + bs[axis]
	split := as[axis]
	return e.Genarray(outShp, wl.Full(outShp), func(iv shape.Index) float64 {
		if iv[axis] < split {
			return a.At(iv)
		}
		saved := iv[axis]
		iv[axis] = saved - split
		v := b.At(iv)
		iv[axis] = saved
		return v
	})
}

// Tile extracts the rectangular sub-array of the given shape starting at
// pos — SAC's tile(shp, pos, a), the general subarray selection that Take
// and Drop are special cases of.
func Tile(e *wl.Env, shp shape.Shape, pos []int, a *array.Array) *array.Array {
	if shp.Rank() != a.Dim() || len(pos) != a.Dim() {
		panic(fmt.Sprintf("aplib: Tile: rank mismatch shp %v pos %v a %v", shp, pos, a.Shape()))
	}
	if !shape.AllLessEq(shape.Zeros(len(pos)), pos) ||
		!shape.AllLessEq(shape.Add(pos, []int(shp)), []int(a.Shape())) {
		panic(fmt.Sprintf("aplib: Tile: window %v at %v exceeds %v", shp, pos, a.Shape()))
	}
	return e.Genarray(shp, wl.Full(shp), func(iv shape.Index) float64 {
		return a.At(shape.Index(shape.Add([]int(iv), pos)))
	})
}

// Iota returns the rank-1 ramp [0, 1, ..., n-1] — APL's ι.
func Iota(e *wl.Env, n int) *array.Array {
	shp := shape.Of(n)
	return e.Genarray(shp, wl.Full(shp), func(iv shape.Index) float64 {
		return float64(iv[0])
	})
}
