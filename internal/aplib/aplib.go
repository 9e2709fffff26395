// Package aplib is the SAC array library: the APL-style compound array
// operations that SAC ships as ordinary library code rather than built-in
// primitives. The paper's Fig. 10 gives the WITH-loop definitions of the
// functions the MG benchmark needs — genarray (with a default value),
// condense, scatter, embed, take — and the surrounding text lists the rest
// of the library the benchmark imports: element-wise extensions of
// arithmetic operators, reductions like sum, and shift/rotate.
//
// Every function here has two implementations with identical semantics:
//
//   - the WITH-loop definition, a direct transliteration of Fig. 10, used
//     at optimization levels O0/O1;
//   - a fused flat-loop kernel, used at O2+ — the effect of sac2c's
//     WITH-loop folding and specialization on this library code.
//
// The equivalence of the two is part of the test suite. None of the
// functions release their arguments; ownership stays with the caller
// (internal/core plays the role of SAC's reference counter and releases
// intermediates explicitly).
package aplib

import (
	"fmt"
	"math"

	"repro/internal/array"
	"repro/internal/shape"
	wl "repro/internal/withloop"
)

// fused reports whether the environment runs the library in fused mode.
func fused(e *wl.Env) bool { return e.Opt >= wl.O2 }

// GenarrayVal implements SAC's genarray(shp, val): an array of shape shp
// with every element set to val (Fig. 10, function genarray).
func GenarrayVal(e *wl.Env, shp shape.Shape, val float64) *array.Array {
	if fused(e) {
		out := e.NewArray(shp)
		if val != 0 {
			data := out.Data()
			e.Sched.For(len(data), e.SeqThreshold, func(lo, hi, _ int) {
				for i := lo; i < hi; i++ {
					data[i] = val
				}
			})
		}
		return out
	}
	return e.Genarray(shp, wl.Full(shp), func(shape.Index) float64 { return val })
}

// Condense implements Fig. 10's condense(str, a): the array of shape
// shape(a)/str whose elements are a[str*iv] — the strided sub-sampling used
// by the fine-to-coarse mapping.
func Condense(e *wl.Env, str int, a *array.Array) *array.Array {
	outShp := shape.Shape(shape.DivScalar([]int(a.Shape()), str))
	if fused(e) && a.Dim() == 3 {
		out := e.NewArrayDirty(outShp)
		od, ad := out.Data(), a.Data()
		o1, o2 := outShp[1], outShp[2]
		a1, a2 := a.Shape()[1], a.Shape()[2]
		e.Sched.For(outShp[0], seqScaled(e, outShp.Size(), outShp[0]), func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				for j := 0; j < o1; j++ {
					src := (i*str*a1 + j*str) * a2
					dst := (i*o1 + j) * o2
					for k := 0; k < o2; k++ {
						od[dst+k] = ad[src+k*str]
					}
				}
			}
		})
		return out
	}
	return e.Genarray(outShp, wl.Full(outShp), func(iv shape.Index) float64 {
		return a.At(shape.Index(shape.MulScalar([]int(iv), str)))
	})
}

// Scatter implements Fig. 10's scatter(str, a): the array of shape
// str*shape(a) holding a[iv/str] at every position where all components of
// iv are multiples of str, and 0 elsewhere — the coarse-to-fine spreading.
func Scatter(e *wl.Env, str int, a *array.Array) *array.Array {
	outShp := shape.Shape(shape.MulScalar([]int(a.Shape()), str))
	if fused(e) && a.Dim() == 3 {
		out := e.NewArray(outShp) // zero background
		od, ad := out.Data(), a.Data()
		a1, a2 := a.Shape()[1], a.Shape()[2]
		n1, n2 := outShp[1], outShp[2]
		e.Sched.For(a.Shape()[0], seqScaled(e, a.Size(), a.Shape()[0]), func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				for j := 0; j < a1; j++ {
					src := (i*a1 + j) * a2
					dst := (i*str*n1 + j*str) * n2
					for k := 0; k < a2; k++ {
						od[dst+k*str] = ad[src+k]
					}
				}
			}
		})
		return out
	}
	g := wl.Full(outShp).WithStep(shape.Replicate(outShp.Rank(), str))
	return e.Genarray(outShp, g, func(iv shape.Index) float64 {
		return a.At(shape.Index(shape.DivScalar([]int(iv), str)))
	})
}

// Embed implements Fig. 10's embed(shp, pos, a): a new array of shape shp
// whose elements starting at index position pos are taken from a; the rest
// are 0.
func Embed(e *wl.Env, shp shape.Shape, pos []int, a *array.Array) *array.Array {
	if len(pos) != a.Dim() || shp.Rank() != a.Dim() {
		panic(fmt.Sprintf("aplib: Embed rank mismatch: shp %v pos %v a %v", shp, pos, a.Shape()))
	}
	if !shape.AllLessEq(shape.Add(pos, []int(a.Shape())), []int(shp)) || !shape.AllLessEq(shape.Zeros(len(pos)), pos) {
		panic(fmt.Sprintf("aplib: Embed: array %v at %v does not fit in %v", a.Shape(), pos, shp))
	}
	if fused(e) && a.Dim() == 3 {
		out := e.NewArray(shp)
		od, ad := out.Data(), a.Data()
		a0, a1, a2 := a.Shape()[0], a.Shape()[1], a.Shape()[2]
		n1, n2 := shp[1], shp[2]
		e.Sched.For(a0, seqScaled(e, a.Size(), a0), func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				for j := 0; j < a1; j++ {
					dst := ((i+pos[0])*n1+j+pos[1])*n2 + pos[2]
					src := (i*a1 + j) * a2
					copy(od[dst:dst+a2], ad[src:src+a2])
				}
			}
		})
		return out
	}
	g := wl.Gen(pos, shape.Add([]int(a.Shape()), pos))
	return e.Genarray(shp, g, func(iv shape.Index) float64 {
		return a.At(shape.Index(shape.Sub([]int(iv), pos)))
	})
}

// Take implements Fig. 10's take(shp, a): the leading sub-array of shape
// shp (which must fit inside a).
func Take(e *wl.Env, shp shape.Shape, a *array.Array) *array.Array {
	if shp.Rank() != a.Dim() || !shape.AllLessEq([]int(shp), []int(a.Shape())) {
		panic(fmt.Sprintf("aplib: Take: shape %v does not fit in %v", shp, a.Shape()))
	}
	if fused(e) && a.Dim() == 3 {
		out := e.NewArrayDirty(shp)
		od, ad := out.Data(), a.Data()
		a1, a2 := a.Shape()[1], a.Shape()[2]
		o1, o2 := shp[1], shp[2]
		e.Sched.For(shp[0], seqScaled(e, shp.Size(), shp[0]), func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				for j := 0; j < o1; j++ {
					src := (i*a1 + j) * a2
					dst := (i*o1 + j) * o2
					copy(od[dst:dst+o2], ad[src:src+o2])
				}
			}
		})
		return out
	}
	return e.Genarray(shp, wl.Full(shp), func(iv shape.Index) float64 {
		return a.At(iv)
	})
}

// Drop returns a minus its first off[j] elements along each axis j —
// the library complement of Take.
func Drop(e *wl.Env, off []int, a *array.Array) *array.Array {
	if len(off) != a.Dim() {
		panic(fmt.Sprintf("aplib: Drop rank mismatch: off %v a %v", off, a.Shape()))
	}
	outShp := shape.Shape(shape.Sub([]int(a.Shape()), off))
	if !outShp.Valid() {
		panic(fmt.Sprintf("aplib: Drop: offset %v exceeds shape %v", off, a.Shape()))
	}
	return e.Genarray(outShp, wl.Full(outShp), func(iv shape.Index) float64 {
		return a.At(shape.Index(shape.Add([]int(iv), off)))
	})
}

// --- element-wise arithmetic -------------------------------------------------

func checkSameShape(op string, a, b *array.Array) {
	if !a.Shape().Equal(b.Shape()) {
		panic(fmt.Sprintf("aplib: %s: shape mismatch %v vs %v", op, a.Shape(), b.Shape()))
	}
}

// binary applies op element-wise to two equally shaped arrays.
func binary(e *wl.Env, name string, a, b *array.Array, op func(x, y float64) float64) *array.Array {
	checkSameShape(name, a, b)
	if fused(e) {
		out := e.NewArrayDirty(a.Shape())
		od, ad, bd := out.Data(), a.Data(), b.Data()
		e.Sched.For(len(od), e.SeqThreshold, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				od[i] = op(ad[i], bd[i])
			}
		})
		return out
	}
	shp := a.Shape()
	return e.Genarray(shp, wl.Full(shp), func(iv shape.Index) float64 {
		return op(a.At(iv), b.At(iv))
	})
}

// Add returns a + b element-wise.
func Add(e *wl.Env, a, b *array.Array) *array.Array {
	return binary(e, "Add", a, b, func(x, y float64) float64 { return x + y })
}

// Sub returns a - b element-wise.
func Sub(e *wl.Env, a, b *array.Array) *array.Array {
	return binary(e, "Sub", a, b, func(x, y float64) float64 { return x - y })
}

// Mul returns a * b element-wise.
func Mul(e *wl.Env, a, b *array.Array) *array.Array {
	return binary(e, "Mul", a, b, func(x, y float64) float64 { return x * y })
}

// Scale returns k * a element-wise.
func Scale(e *wl.Env, k float64, a *array.Array) *array.Array {
	if fused(e) {
		out := e.NewArrayDirty(a.Shape())
		od, ad := out.Data(), a.Data()
		e.Sched.For(len(od), e.SeqThreshold, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				od[i] = k * ad[i]
			}
		})
		return out
	}
	shp := a.Shape()
	return e.Genarray(shp, wl.Full(shp), func(iv shape.Index) float64 { return k * a.At(iv) })
}

// --- reductions ---------------------------------------------------------------

// Sum folds + over all elements of a.
func Sum(e *wl.Env, a *array.Array) float64 {
	if fused(e) {
		d := a.Data()
		return e.Sched.Reduce(len(d), e.SeqThreshold, 0,
			func(lo, hi int) float64 {
				s := 0.0
				for i := lo; i < hi; i++ {
					s += d[i]
				}
				return s
			}, func(x, y float64) float64 { return x + y })
	}
	shp := a.Shape()
	return e.Fold(shp, wl.Full(shp), func(x, y float64) float64 { return x + y }, 0,
		func(iv shape.Index) float64 { return a.At(iv) })
}

// sumSq folds + over the squares of all elements of a (the building block
// of L2 norms).
func sumSq(e *wl.Env, a *array.Array) float64 {
	if fused(e) {
		d := a.Data()
		return e.Sched.Reduce(len(d), e.SeqThreshold, 0,
			func(lo, hi int) float64 {
				s := 0.0
				for i := lo; i < hi; i++ {
					s += d[i] * d[i]
				}
				return s
			}, func(x, y float64) float64 { return x + y })
	}
	shp := a.Shape()
	return e.Fold(shp, wl.Full(shp), func(x, y float64) float64 { return x + y }, 0,
		func(iv shape.Index) float64 { v := a.At(iv); return v * v })
}

// MaxAbs folds max over |a[iv]|.
func MaxAbs(e *wl.Env, a *array.Array) float64 {
	if fused(e) {
		d := a.Data()
		return e.Sched.Reduce(len(d), e.SeqThreshold, 0,
			func(lo, hi int) float64 {
				m := 0.0
				for i := lo; i < hi; i++ {
					if v := math.Abs(d[i]); v > m {
						m = v
					}
				}
				return m
			}, math.Max)
	}
	shp := a.Shape()
	return e.Fold(shp, wl.Full(shp), math.Max, 0,
		func(iv shape.Index) float64 { return math.Abs(a.At(iv)) })
}

// L2Norm returns sqrt(sum(a²)/size(a)) — the discrete L2 norm the NPB
// verification uses (over whatever index set a covers).
func L2Norm(e *wl.Env, a *array.Array) float64 {
	return math.Sqrt(sumSq(e, a) / float64(a.Size()))
}

// --- structural operations ------------------------------------------------------

// Rotate cyclically rotates a by off positions along the given axis
// (positive off moves element i to i+off mod extent) — one of the
// "shift and rotate operations" the paper lists in the array library.
func Rotate(e *wl.Env, axis, off int, a *array.Array) *array.Array {
	if axis < 0 || axis >= a.Dim() {
		panic(fmt.Sprintf("aplib: Rotate: axis %d out of range for rank %d", axis, a.Dim()))
	}
	shp := a.Shape()
	n := shp[axis]
	if n == 0 {
		return a.Clone()
	}
	off = ((off % n) + n) % n
	return e.Genarray(shp, wl.Full(shp), func(iv shape.Index) float64 {
		j := iv[axis] - off
		if j < 0 {
			j += n
		}
		saved := iv[axis]
		iv[axis] = j
		v := a.At(iv)
		iv[axis] = saved
		return v
	})
}

// Shift shifts a by off positions along the given axis, filling vacated
// positions with fill.
func Shift(e *wl.Env, axis, off int, fill float64, a *array.Array) *array.Array {
	if axis < 0 || axis >= a.Dim() {
		panic(fmt.Sprintf("aplib: Shift: axis %d out of range for rank %d", axis, a.Dim()))
	}
	shp := a.Shape()
	return e.Genarray(shp, wl.Full(shp), func(iv shape.Index) float64 {
		j := iv[axis] - off
		if j < 0 || j >= shp[axis] {
			return fill
		}
		saved := iv[axis]
		iv[axis] = j
		v := a.At(iv)
		iv[axis] = saved
		return v
	})
}

// seqScaled is the environment's sequential threshold, defined in
// elements, for a loop over the outer axis of a total-element array.
func seqScaled(e *wl.Env, total, outer int) int {
	if outer > 0 {
		if per := total / outer; per > 0 {
			return e.SeqThreshold / per
		}
	}
	return e.SeqThreshold
}
