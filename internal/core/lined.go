// Line-buffered backend of the fused O3 plane kernels — the "buffered"
// kernel variant, and the rows the "simd" variant falls back to (see the
// package comment's "Kernel variants" section).
//
// The scalar kernels recompute every in-plane sub-sum of the canonical
// association three times (at k−1, k and k+1 as the k loop slides). The
// functions here memoise those sub-sums the way the Fortran MG reference
// does (internal/f77): two row buffers u1/u2 hold, for one (i, j) row,
//
//	u1[k] = ((x[i−1][j][k] + x[i][j−1][k]) + x[i][j+1][k]) + x[i+1][j][k]
//	u2[k] = ((x[i−1][j−1][k] + x[i−1][j+1][k]) + x[i+1][j−1][k]) + x[i+1][j+1][k]
//
// filled once per row, and each output point combines three neighbouring
// buffer entries. Because the buffers hold exactly the sub-sums the
// canonical association already groups, memoisation changes no value:
// the buffered results — grids and norms — are bit-identical to scalar
// (TestBufferedBitIdentical). internal/simd runs these statements four
// lanes wide, one call per plane, dropping the same exact-zero terms, so
// its planes carry these rows' bits (internal/simd's tests compare the two
// through this package's *Planes entry points); where it declines a plane,
// these rows compute it.
package core

import "repro/internal/stencil"

// subRelaxRowLined computes the residual row at offset zz of a plane,
// o = v − A·u, from u's planes below, at and above it: the row statement
// of kern.subRelax's lined backends.
func subRelaxRowLined(o, v, um, uz, up []float64, zz, n2 int, c stencil.Coeffs, u1, u2 []float64) {
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	uMM, uMZ, uMP := um[zz-n2:zz], um[zz:zz+n2], um[zz+n2:zz+2*n2]
	uZM, uZZ, uZP := uz[zz-n2:zz], uz[zz:zz+n2], uz[zz+n2:zz+2*n2]
	uPM, uPZ, uPP := up[zz-n2:zz], up[zz:zz+n2], up[zz+n2:zz+2*n2]
	oZZ, vZZ := o[zz:zz+n2], v[zz:zz+n2]
	for k := 0; k < n2; k++ {
		u1[k] = ((uMZ[k] + uZM[k]) + uZP[k]) + uPZ[k]
		u2[k] = ((uMM[k] + uMP[k]) + uPM[k]) + uPP[k]
	}
	if c1 == 0 {
		for k := 1; k < n2-1; k++ {
			oZZ[k] = vZZ[k] - ((c0*uZZ[k] + c2*((u2[k]+u1[k-1])+u1[k+1])) +
				c3*(u2[k-1]+u2[k+1]))
		}
		return
	}
	for k := 1; k < n2-1; k++ {
		oZZ[k] = vZZ[k] - (((c0*uZZ[k] + c1*((uZZ[k-1]+uZZ[k+1])+u1[k])) +
			c2*((u2[k]+u1[k-1])+u1[k+1])) + c3*(u2[k-1]+u2[k+1]))
	}
}

// addRelaxPlaneLined is addRelaxPlane in the line-buffered form:
// o = z + S·r (u == nil) or o = u + (z + S·r) on the interior rows of one
// plane.
func addRelaxPlaneLined(o, z, u, rm, rz, rp []float64, n1, n2 int, c stencil.Coeffs, u1, u2 []float64) {
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	for zz := n2; zz < (n1-1)*n2; zz += n2 {
		rMM, rMZ, rMP := rm[zz-n2:zz], rm[zz:zz+n2], rm[zz+n2:zz+2*n2]
		rZM, rZZ, rZP := rz[zz-n2:zz], rz[zz:zz+n2], rz[zz+n2:zz+2*n2]
		rPM, rPZ, rPP := rp[zz-n2:zz], rp[zz:zz+n2], rp[zz+n2:zz+2*n2]
		oZZ, zZZ := o[zz:zz+n2], z[zz:zz+n2]
		for k := 0; k < n2; k++ {
			u1[k] = ((rMZ[k] + rZM[k]) + rZP[k]) + rPZ[k]
			u2[k] = ((rMM[k] + rMP[k]) + rPM[k]) + rPP[k]
		}
		switch {
		case u == nil && c3 == 0:
			// The S stencils' zero corner coefficient: c3·s3 is an
			// exact zero, mirrored from the scalar specialization.
			for k := 1; k < n2-1; k++ {
				oZZ[k] = zZZ[k] + ((c0*rZZ[k] + c1*((rZZ[k-1]+rZZ[k+1])+u1[k])) +
					c2*((u2[k]+u1[k-1])+u1[k+1]))
			}
		case u == nil:
			for k := 1; k < n2-1; k++ {
				oZZ[k] = zZZ[k] + (((c0*rZZ[k] + c1*((rZZ[k-1]+rZZ[k+1])+u1[k])) +
					c2*((u2[k]+u1[k-1])+u1[k+1])) + c3*(u2[k-1]+u2[k+1]))
			}
		case c3 == 0:
			uZZ := u[zz : zz+n2]
			for k := 1; k < n2-1; k++ {
				oZZ[k] = uZZ[k] + (zZZ[k] + ((c0*rZZ[k] + c1*((rZZ[k-1]+rZZ[k+1])+u1[k])) +
					c2*((u2[k]+u1[k-1])+u1[k+1])))
			}
		default:
			uZZ := u[zz : zz+n2]
			for k := 1; k < n2-1; k++ {
				oZZ[k] = uZZ[k] + (zZZ[k] + (((c0*rZZ[k] + c1*((rZZ[k-1]+rZZ[k+1])+u1[k])) +
					c2*((u2[k]+u1[k-1])+u1[k+1])) + c3*(u2[k-1]+u2[k+1])))
			}
		}
	}
}

// projectCondensePlaneLined is projectCondensePlane in the line-buffered
// form. The buffers span the fine row (length fn2): every fine index
// feeds some coarse point's s1/s2/s3, so nothing filled is wasted.
func projectCondensePlaneLined(o, rm, rz, rp []float64, fn1, fn2 int, c stencil.Coeffs, u1, u2 []float64) {
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	cn1, cn2 := fn1/2+1, fn2/2+1
	for zz, base := 2*fn2, cn2; base < (cn1-1)*cn2; zz, base = zz+2*fn2, base+cn2 {
		rMM, rMZ, rMP := rm[zz-fn2:zz], rm[zz:zz+fn2], rm[zz+fn2:zz+2*fn2]
		rZM, rZZ, rZP := rz[zz-fn2:zz], rz[zz:zz+fn2], rz[zz+fn2:zz+2*fn2]
		rPM, rPZ, rPP := rp[zz-fn2:zz], rp[zz:zz+fn2], rp[zz+fn2:zz+2*fn2]
		for t := 1; t < fn2; t++ {
			u1[t] = ((rMZ[t] + rZM[t]) + rZP[t]) + rPZ[t]
			u2[t] = ((rMM[t] + rMP[t]) + rPM[t]) + rPP[t]
		}
		for j1 := 1; j1 < cn2-1; j1++ {
			k := 2 * j1
			s1 := (rZZ[k-1] + rZZ[k+1]) + u1[k]
			s2 := (u2[k] + u1[k-1]) + u1[k+1]
			s3 := u2[k-1] + u2[k+1]
			o[base+j1] = ((c0*rZZ[k] + c1*s1) + c2*s2) + c3*s3
		}
	}
}

// interpolatePlaneLined is interpolatePlane in the line-buffered form:
// the up-to-four contributing coarse rows of one fine row collapse into
// one cross-row buffer b (their canonical pairwise sums), after which
// every fine element is one buffer read (even f1) or one buffered pair
// (odd f1) — the even/odd interleaving store of interpRow. b has
// coarse-row length cn2. Rows and columns [m, extent−m) are written.
func interpolatePlaneLined(o, zl, zh []float64, o3 bool, cn1, cn2, m int, c stencil.Coeffs, b []float64) {
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	fn1, fn2 := 2*cn1-2, 2*cn2-2
	for f2, base := m, m*fn2; f2 < fn1-m; f2, base = f2+1, base+fn2 {
		l2, h2, o2 := f2/2, (f2+1)/2, f2&1 == 1
		bl := l2 * cn2
		bh := bl + (h2-l2)*cn2
		// The coarse row the fine row interpolates along, and the Q weights
		// of its on-axis (even) and between-axis (odd) fine columns, follow
		// from how many of the f3/f2 axes are off-anchor.
		src, cEven, cOdd := b, c1, c2
		switch {
		case !o3 && !o2:
			// Both outer axes on-anchor: single coarse row, no buffer.
			src, cEven, cOdd = zl[bl:bl+cn2], c0, c1
		case !o3 && o2:
			fillSum2(b, zl[bl:bl+cn2], zl[bh:bh+cn2])
		case o3 && !o2:
			fillSum2(b, zl[bl:bl+cn2], zh[bl:bl+cn2])
		default:
			fillSum4(b, zl[bl:bl+cn2], zl[bh:bh+cn2], zh[bl:bl+cn2], zh[bh:bh+cn2])
			cEven, cOdd = c2, c3
		}
		interpRow(o[base:base+fn2], src, cEven, cOdd, m == 0)
	}
}

// interpRow writes fine row o from the coarse buffer b: cEven·b[l] on the
// even columns, cOdd·(b[l] + b[l+1]) on the odd ones — the interior, plus
// the two end columns when ends is set.
func interpRow(o, b []float64, cEven, cOdd float64, ends bool) {
	if ends {
		o[0] = cEven * b[0]
		o[len(o)-1] = cOdd * (b[len(b)-2] + b[len(b)-1])
	}
	for l := 0; l+2 < len(b); l++ {
		o[2*l+1] = cOdd * (b[l] + b[l+1])
		o[2*l+2] = cEven * b[l+1]
	}
}

// fillSum2 and fillSum4 fill a cross-row buffer in the canonical
// association.
func fillSum2(dst, a, b []float64) {
	for m := range dst {
		dst[m] = a[m] + b[m]
	}
}

func fillSum4(dst, a, b, c, d []float64) {
	for m := range dst {
		dst[m] = ((a[m] + b[m]) + c[m]) + d[m]
	}
}
