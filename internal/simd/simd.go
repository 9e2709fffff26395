// Package simd runs the line-buffered rows of the MG stencil kernels four
// lanes wide: one AVX2 assembly call per plane for each of internal/core's
// four fused kernels — subRelax (with or without its norm rows), addRelax
// and addRelaxPlus, projectCondense, and interpolate.
// A call walks every interior row of its plane; per row it fills the line
// buffers and combines, so the Go side pays one call per plane, not three
// per row. subRelax and addRelax take the rows in pairs: one column pass
// fills both rows' buffers from rows j−1 … j+2 of the three input planes
// (12 row loads per four-column block where two one-row fills take 16)
// into one line buffer of RelaxLines rows, then both rows combine; an odd last row
// fills its own.
//
// # Bit-identity
//
// Every lane evaluates exactly the operation tree of the buffered Go rows
// (internal/core/lined.go): plain VADDPD/VMULPD, never FMA, the same
// grouping, and the same terms dropped where a coefficient is exactly zero
// (subRelax's c1, addRelax's c3). Lanes are independent outputs and rows
// end on one-lane tails, so a plane computed here carries those rows'
// bits — NaN, infinities, signed zeros and subnormals included.
//
// # Declining
//
// A primitive that cannot run returns false and writes nothing: when the
// CPU lacks AVX2 (runtime CPUID detection, including the OSXSAVE/XCR0
// check for OS-enabled YMM state), when the MG_SIMD_DISABLE environment
// variable is set, on other architectures, and on planes whose rows are
// too short for one four-lane block. The caller then runs its buffered Go
// rows, which compute the same bits.
package simd

import "os"

// useAsm gates the assembly. It is a variable (not a constant) so the
// package test can take the declining path on an AVX2 host.
var useAsm = hasAVX2() && os.Getenv("MG_SIMD_DISABLE") == ""

// Available reports whether the AVX2 path is active (supported by the
// hardware and not disabled via MG_SIMD_DISABLE): the CPU half of the
// backend rule — long rows run simd where it is true and buffered where it
// is not (withloop.DefaultVariant).
func Available() bool { return useAsm }

// RelaxLines is how many rows of n2 the line buffer of SubRelaxPlane and
// AddRelaxPlane holds: u1 and u2 of a row pair, filled in one column pass.
const RelaxLines = 4

// Mode bits of the assembly kernels.
const (
	dropTerm = 1 // the coefficient of the term the buffered rows fold is exactly zero
	normRows = 2 // subRelax: fold the stored rows into the norm's sum of squares
	normAbs  = 4 // subRelax: and into its largest absolute value
	plusW    = 2 // addRelax: add the w operand
)

// fit reports whether every slice holds at least n elements.
func fit(n int, s ...[]float64) bool {
	for _, x := range s {
		if len(x) < n {
			return false
		}
	}
	return true
}

// SubRelaxPlane computes o = v − A·u on the interior rows and columns of
// one n1×n2 plane from u's planes um, uz and up (below, at and above it),
// through the line buffer u (RelaxLines·n2 long). o may alias v. With norm
// set it also returns the plane's norm partials over the stored rows: the
// sum over rows, in order, of each row's sum of squares accumulated left
// to right, and with abs set the largest absolute value (0 without it).
func SubRelaxPlane(o, v, um, uz, up []float64, n1, n2 int, c *[4]float64, u []float64,
	norm, abs bool) (sum, maxAbs float64, ok bool) {
	if !useAsm || n1 < 3 || n2 < 4 || !fit(n1*n2, o, v, um, uz, up) || !fit(RelaxLines*n2, u) {
		return 0, 0, false
	}
	mode := 0
	if c[1] == 0 {
		mode = dropTerm
	}
	if norm {
		mode |= normRows
	}
	if norm && abs {
		mode |= normAbs
	}
	sum, maxAbs = subRelaxPlaneAVX2(&o[0], &v[0], &um[0], &uz[0], &up[0], n1, n2, c, &u[0], mode)
	return sum, maxAbs, true
}

// AddRelaxPlane computes o = z + S·r (w nil) or o = w + (z + S·r) on the
// interior rows and columns of one n1×n2 plane from r's planes rm, rz and
// rp, through the line buffer u (RelaxLines·n2 long). o may alias z or w.
func AddRelaxPlane(o, z, w, rm, rz, rp []float64, n1, n2 int, c *[4]float64, u []float64) bool {
	if !useAsm || n1 < 3 || n2 < 4 || !fit(n1*n2, o, z, rm, rz, rp) || !fit(RelaxLines*n2, u) {
		return false
	}
	mode := 0
	if c[3] == 0 {
		mode = dropTerm
	}
	var wp *float64
	if w != nil {
		if !fit(n1*n2, w) {
			return false
		}
		wp, mode = &w[0], mode|plusW
	}
	addRelaxPlaneAVX2(&o[0], &z[0], wp, &rm[0], &rz[0], &rp[0], n1, n2, c, &u[0], mode)
	return true
}

// ProjectPlane computes the interior rows and columns of one coarse plane
// o of projectCondense from the fine planes rm, rz and rp (fn1×fn2, the
// coarse plane (fn1/2+1)×(fn2/2+1)): the relax combine at the even fine
// points, through the fine-row line buffers u1 and u2.
func ProjectPlane(o, rm, rz, rp []float64, fn1, fn2 int, c *[4]float64, u1, u2 []float64) bool {
	if !useAsm || fn1 < 4 || fn2 < 4 || !fit((fn1/2+1)*(fn2/2+1), o) || !fit(fn1*fn2, rm, rz, rp) || !fit(fn2, u1, u2) {
		return false
	}
	projectPlaneAVX2(&o[0], &rm[0], &rz[0], &rp[0], fn1, fn2, c, &u1[0], &u2[0])
	return true
}

// InterpPlane computes o = Q·z on rows and columns m … extent−1−m (m is 0
// or 1) of one fine plane of interpolate, (2cn1−2)×(2cn2−2), from the
// cn1×cn2 coarse planes zl and zh it lies on or between (o3: between). b
// (cn2 long) stages a fine row's cross-row sum of coarse rows.
func InterpPlane(o, zl, zh []float64, o3 bool, cn1, cn2, m int, c *[4]float64, b []float64) bool {
	fn1, fn2 := 2*cn1-2, 2*cn2-2
	if !useAsm || cn2 < 4 || m != 0 && m != 1 || fn1-2*m < 1 || !fit(fn1*fn2, o) || !fit(cn1*cn2, zl, zh) || !fit(cn2, b) {
		return false
	}
	odd := 0
	if o3 {
		odd = 1
	}
	interpPlaneAVX2(&o[0], &zl[0], &zh[0], odd, cn1, cn2, m, c, &b[0])
	return true
}
