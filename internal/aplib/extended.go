// Relational operators and selection beyond the paper's Fig. 10: Eq and
// Greater (boolean arrays are 0.0/1.0, as in APL) and Where, the three
// that examples/life's Game of Life step is written with. Like the rest of
// the library they are WITH-loops, so they are implicitly parallel and
// obey the environment's optimization level.
package aplib

import (
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
