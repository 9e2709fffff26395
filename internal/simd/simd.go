// Package simd provides 4-wide float64 row primitives for the MG stencil
// kernels: the buffer fills and combine loops of the line-buffered form
// (internal/stencil's canonical association), the even/odd interleaving
// store of trilinear interpolation and the stride-2 combine of the
// projection, vectorised with AVX2 on amd64 and implemented in pure Go
// everywhere else.
//
// # Bit-identity
//
// Every primitive evaluates, in each lane, exactly the operation tree of
// the canonical association — plain VADDPD/VMULPD, never FMA, with the
// same grouping as the scalar kernels. Lanes are independent outputs, so
// the vector and fallback paths produce bit-identical results; the
// package test asserts it on random rows. The combine rows apply all four
// coefficient terms unconditionally (like the generic O0 kernel) where
// the scalar fused kernels drop exact-zero terms — adding an exact zero
// cannot change an IEEE-754 sum, so the values still agree bit for bit.
//
// # Dispatch
//
// The AVX2 path is taken when the CPU supports it (runtime CPUID
// detection, including the OSXSAVE/XCR0 check for OS-enabled YMM state)
// and the MG_SIMD_DISABLE environment variable is unset. Otherwise every
// call transparently runs the pure-Go fallback, so callers may select the
// simd kernel variant unconditionally.
package simd

import "os"

// useAsm gates the assembly fast path. It is a variable (not a constant)
// so the package test can force the fallback and compare both paths.
var useAsm = hasAVX2() && os.Getenv("MG_SIMD_DISABLE") == ""

// Available reports whether the AVX2 path is active (supported by the
// hardware and not disabled via MG_SIMD_DISABLE). The row primitives work
// either way; this is the CPU half of the backend rule — long rows run
// simd where it is true and buffered where it is not
// (withloop.DefaultVariant).
func Available() bool { return useAsm }

// Sum2 computes dst[i] = a[i] + b[i].
func Sum2(dst, a, b []float64) {
	i := 0
	if useAsm {
		i = sum2Asm(dst, a, b)
	}
	for ; i < len(dst); i++ {
		dst[i] = a[i] + b[i]
	}
}

// Sum4 computes dst[i] = ((a[i] + b[i]) + c[i]) + d[i] — the u1/u2 buffer
// fill of the canonical association.
func Sum4(dst, a, b, c, d []float64) {
	i := 0
	if useAsm {
		i = sum4Asm(dst, a, b, c, d)
	}
	for ; i < len(dst); i++ {
		dst[i] = ((a[i] + b[i]) + c[i]) + d[i]
	}
}

// stencilAt is the shared combine tree of the relax rows: the canonical
// association over the centre row x and the u1/u2 line buffers.
func stencilAt(x, u1, u2 []float64, k int, c *[4]float64) float64 {
	s1 := (x[k-1] + x[k+1]) + u1[k]
	s2 := (u2[k] + u1[k-1]) + u1[k+1]
	s3 := u2[k-1] + u2[k+1]
	return ((c[0]*x[k] + c[1]*s1) + c[2]*s2) + c[3]*s3
}

// SubRelaxRow computes o[k] = v[k] − stencil(k) for the interior
// k ∈ [1, len(o)−1) of one grid row, where stencil(k) folds the centre
// row x and the u1/u2 line buffers in the canonical association.
func SubRelaxRow(o, v, x, u1, u2 []float64, c *[4]float64) {
	n := len(o)
	k := 1
	if useAsm && n-2 >= 4 {
		m := (n - 2) &^ 3
		subRelaxRowAVX2(&o[0], &v[0], &x[0], &u1[0], &u2[0], m, c)
		k += m
	}
	for ; k < n-1; k++ {
		o[k] = v[k] - stencilAt(x, u1, u2, k, c)
	}
}

// AddRelaxRow computes o[k] = z[k] + stencil(k) for the interior of one
// grid row.
func AddRelaxRow(o, z, x, u1, u2 []float64, c *[4]float64) {
	n := len(o)
	k := 1
	if useAsm && n-2 >= 4 {
		m := (n - 2) &^ 3
		addRelaxRowAVX2(&o[0], &z[0], &x[0], &u1[0], &u2[0], m, c)
		k += m
	}
	for ; k < n-1; k++ {
		o[k] = z[k] + stencilAt(x, u1, u2, k, c)
	}
}

// AddRelaxPlusRow computes o[k] = w[k] + (z[k] + stencil(k)) for the
// interior of one grid row — the fused MGrid correction tail.
func AddRelaxPlusRow(o, w, z, x, u1, u2 []float64, c *[4]float64) {
	n := len(o)
	k := 1
	if useAsm && n-2 >= 4 {
		m := (n - 2) &^ 3
		addRelaxPlusRowAVX2(&o[0], &w[0], &z[0], &x[0], &u1[0], &u2[0], m, c)
		k += m
	}
	for ; k < n-1; k++ {
		o[k] = w[k] + (z[k] + stencilAt(x, u1, u2, k, c))
	}
}

// InterpRow computes the interior of one trilinear-interpolation fine row
// o (length 2·len(b)−2) from the coarse cross-row buffer b: odd fine
// columns average their two coarse neighbours, even ones sit on a coarse
// point,
//
//	o[2m+1] = cOdd·(b[m] + b[m+1])    o[2m+2] = cEven·b[m+1]
//
// for m ∈ [0, len(b)−2). o[0] and o[len(o)−1] are not written.
func InterpRow(o, b []float64, cEven, cOdd float64) {
	n := len(b) - 2
	m := 0
	if useAsm && n >= 4 {
		m = n &^ 3
		interpRowAVX2(&o[0], &b[0], m, cEven, cOdd)
	}
	for ; m < n; m++ {
		o[2*m+1] = cOdd * (b[m] + b[m+1])
		o[2*m+2] = cEven * b[m+1]
	}
}

// ProjectRow computes the interior of one projected coarse row o (length
// len(x)/2+1): o[j] = stencil(2j) for j ∈ [1, len(o)−1), the combine tree
// of the relax rows evaluated at the even fine columns only.
func ProjectRow(o, x, u1, u2 []float64, c *[4]float64) {
	n := len(o)
	j := 1
	if useAsm && n-2 >= 4 {
		m := (n - 2) &^ 3
		projectRowAVX2(&o[0], &x[0], &u1[0], &u2[0], m, c)
		j += m
	}
	for ; j < n-1; j++ {
		o[j] = stencilAt(x, u1, u2, 2*j, c)
	}
}
