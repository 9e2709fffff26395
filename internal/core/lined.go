// Line-buffered and SIMD backends of the fused O3 plane kernels — the
// "buffered" and "simd" kernel variants of the per-(kernel, level) plans
// (see the package comment's "Kernel variants" section).
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
// (TestBufferedBitIdentical). With vec set the fills and combines run
// through internal/simd, whose lanes execute the same operation tree;
// the simd combine applies all four coefficient terms where the scalar
// branches drop exact zeros, which cannot change an IEEE-754 sum.
//
// The lined kernels ignore the plan's tile edge: tiling only permutes
// independent writes (no result change), and the line buffers already
// serialise whole rows through the cache, which is what the j/k tiling
// of the scalar kernels approximates.
package core

import (
	"math"

	"repro/internal/simd"
	"repro/internal/stencil"
)

// subRelaxPlaneLined is subRelaxPlane in the line-buffered form:
// out = v − A·u on interior plane i.
func subRelaxPlaneLined(od, vd, ud []float64, n1, n2, i int, c stencil.Coeffs,
	u1, u2 []float64, vec bool) {
	mz := ((i-1)*n1 + 1) * n2
	zz := (i*n1 + 1) * n2
	pz := ((i+1)*n1 + 1) * n2
	for j := 1; j < n1-1; j, mz, zz, pz = j+1, mz+n2, zz+n2, pz+n2 {
		subRelaxRowLined(od, vd, ud, mz, zz, pz, n2, c, u1, u2, vec)
	}
}

// subRelaxNormPlaneLined is subRelaxPlaneLined plus the NPB norm partials
// of plane i. The residual row is written first and the partials fold
// from the stored values left-to-right, rows in ascending j — the same
// values in the same order as the scalar kernel's interleaved
// accumulation, so the norms stay bit-identical.
func subRelaxNormPlaneLined(od, vd, ud []float64, n1, n2, i int, c stencil.Coeffs,
	u1, u2 []float64, vec bool) (sum, maxAbs float64) {
	mz := ((i-1)*n1 + 1) * n2
	zz := (i*n1 + 1) * n2
	pz := ((i+1)*n1 + 1) * n2
	for j := 1; j < n1-1; j, mz, zz, pz = j+1, mz+n2, zz+n2, pz+n2 {
		subRelaxRowLined(od, vd, ud, mz, zz, pz, n2, c, u1, u2, vec)
		oZZ := od[zz : zz+n2]
		var acc float64
		for k := 1; k < n2-1; k++ {
			r := oZZ[k]
			acc += r * r
			if a := math.Abs(r); a > maxAbs {
				maxAbs = a
			}
		}
		sum += acc
	}
	return sum, maxAbs
}

// subRelaxRowLined computes one residual row of subRelaxPlaneLined, given
// the three rolled centre-row bases.
func subRelaxRowLined(od, vd, ud []float64, mz, zz, pz, n2 int, c stencil.Coeffs,
	u1, u2 []float64, vec bool) {
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	uMM, uMZ, uMP := ud[mz-n2:mz], ud[mz:mz+n2], ud[mz+n2:mz+2*n2]
	uZM, uZZ, uZP := ud[zz-n2:zz], ud[zz:zz+n2], ud[zz+n2:zz+2*n2]
	uPM, uPZ, uPP := ud[pz-n2:pz], ud[pz:pz+n2], ud[pz+n2:pz+2*n2]
	oZZ, vZZ := od[zz:zz+n2], vd[zz:zz+n2]
	if vec {
		simd.Sum4(u1, uMZ, uZM, uZP, uPZ)
		simd.Sum4(u2, uMM, uMP, uPM, uPP)
		simd.SubRelaxRow(oZZ, vZZ, uZZ, u1, u2, (*[4]float64)(&c))
		return
	}
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
// out = z + S·r (ud == nil) or out = u + (z + S·r) on interior plane i.
func addRelaxPlaneLined(od, zd, ud, rd []float64, n1, n2, i int, c stencil.Coeffs,
	u1, u2 []float64, vec bool) {
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	cp := (*[4]float64)(&c)
	mz := ((i-1)*n1 + 1) * n2
	zz := (i*n1 + 1) * n2
	pz := ((i+1)*n1 + 1) * n2
	for j := 1; j < n1-1; j, mz, zz, pz = j+1, mz+n2, zz+n2, pz+n2 {
		rMM, rMZ, rMP := rd[mz-n2:mz], rd[mz:mz+n2], rd[mz+n2:mz+2*n2]
		rZM, rZZ, rZP := rd[zz-n2:zz], rd[zz:zz+n2], rd[zz+n2:zz+2*n2]
		rPM, rPZ, rPP := rd[pz-n2:pz], rd[pz:pz+n2], rd[pz+n2:pz+2*n2]
		oZZ, zZZ := od[zz:zz+n2], zd[zz:zz+n2]
		if vec {
			simd.Sum4(u1, rMZ, rZM, rZP, rPZ)
			simd.Sum4(u2, rMM, rMP, rPM, rPP)
			if ud == nil {
				simd.AddRelaxRow(oZZ, zZZ, rZZ, u1, u2, cp)
			} else {
				simd.AddRelaxPlusRow(oZZ, ud[zz:zz+n2], zZZ, rZZ, u1, u2, cp)
			}
			continue
		}
		for k := 0; k < n2; k++ {
			u1[k] = ((rMZ[k] + rZM[k]) + rZP[k]) + rPZ[k]
			u2[k] = ((rMM[k] + rMP[k]) + rPM[k]) + rPP[k]
		}
		switch {
		case ud == nil && c3 == 0:
			// The S stencils' zero corner coefficient: c3·s3 is an
			// exact zero, mirrored from the scalar specialization.
			for k := 1; k < n2-1; k++ {
				oZZ[k] = zZZ[k] + ((c0*rZZ[k] + c1*((rZZ[k-1]+rZZ[k+1])+u1[k])) +
					c2*((u2[k]+u1[k-1])+u1[k+1]))
			}
		case ud == nil:
			for k := 1; k < n2-1; k++ {
				oZZ[k] = zZZ[k] + (((c0*rZZ[k] + c1*((rZZ[k-1]+rZZ[k+1])+u1[k])) +
					c2*((u2[k]+u1[k-1])+u1[k+1])) + c3*(u2[k-1]+u2[k+1]))
			}
		case c3 == 0:
			uZZ := ud[zz : zz+n2]
			for k := 1; k < n2-1; k++ {
				oZZ[k] = uZZ[k] + (zZZ[k] + ((c0*rZZ[k] + c1*((rZZ[k-1]+rZZ[k+1])+u1[k])) +
					c2*((u2[k]+u1[k-1])+u1[k+1])))
			}
		default:
			uZZ := ud[zz : zz+n2]
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
func projectCondensePlaneLined(od, rd []float64, fn1, fn2, jc int, c stencil.Coeffs,
	u1, u2 []float64, vec bool) {
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	cn1, cn2 := fn1/2+1, fn2/2+1
	i := 2 * jc
	mz := ((i-1)*fn1 + 2) * fn2
	zz := (i*fn1 + 2) * fn2
	pz := ((i+1)*fn1 + 2) * fn2
	base := (jc*cn1 + 1) * cn2
	for j2 := 1; j2 < cn1-1; j2, mz, zz, pz, base = j2+1, mz+2*fn2, zz+2*fn2, pz+2*fn2, base+cn2 {
		rMM, rMZ, rMP := rd[mz-fn2:mz], rd[mz:mz+fn2], rd[mz+fn2:mz+2*fn2]
		rZM, rZZ, rZP := rd[zz-fn2:zz], rd[zz:zz+fn2], rd[zz+fn2:zz+2*fn2]
		rPM, rPZ, rPP := rd[pz-fn2:pz], rd[pz:pz+fn2], rd[pz+fn2:pz+2*fn2]
		if vec {
			simd.Sum4(u1, rMZ, rZM, rZP, rPZ)
			simd.Sum4(u2, rMM, rMP, rPM, rPP)
			simd.ProjectRow(od[base:base+cn2], rZZ, u1, u2, (*[4]float64)(&c))
			continue
		}
		for t := 1; t < fn2; t++ {
			u1[t] = ((rMZ[t] + rZM[t]) + rZP[t]) + rPZ[t]
			u2[t] = ((rMM[t] + rMP[t]) + rPM[t]) + rPP[t]
		}
		for j1 := 1; j1 < cn2-1; j1++ {
			k := 2 * j1
			s1 := (rZZ[k-1] + rZZ[k+1]) + u1[k]
			s2 := (u2[k] + u1[k-1]) + u1[k+1]
			s3 := u2[k-1] + u2[k+1]
			od[base+j1] = ((c0*rZZ[k] + c1*s1) + c2*s2) + c3*s3
		}
	}
}

// interpolatePlaneLined is interpolatePlane in the line-buffered form:
// the up-to-four contributing coarse rows of one fine row collapse into
// one cross-row buffer b (their canonical pairwise sums), after which
// every fine element is one buffer read (even f1) or one buffered pair
// (odd f1) — the even/odd interleaving store of interpRow. b has
// coarse-row length cn2; t, the staging row of the accumulating form
// (wd != nil), fine-row length. Rows and columns [m, extent−m) are written.
func interpolatePlaneLined(od, wd, zd []float64, cn1, cn2, f3, m int, c stencil.Coeffs,
	b, t []float64, vec bool) {
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	fn1, fn2 := 2*cn1-2, 2*cn2-2
	l3, h3, o3 := f3/2, (f3+1)/2, f3&1 == 1
	rowL3, rowH3 := l3*cn1, h3*cn1
	base := (f3*fn1 + m) * fn2
	for f2 := m; f2 < fn1-m; f2, base = f2+1, base+fn2 {
		l2, h2, o2 := f2/2, (f2+1)/2, f2&1 == 1
		bll := (rowL3 + l2) * cn2
		blh := bll + (h2-l2)*cn2
		bhl := (rowH3 + l2) * cn2
		bhh := bhl + (h2-l2)*cn2
		// The coarse row the fine row interpolates along, and the Q weights
		// of its on-axis (even) and between-axis (odd) fine columns, follow
		// from how many of the f3/f2 axes are off-anchor.
		src, cEven, cOdd := b, c1, c2
		switch {
		case !o3 && !o2:
			// Both outer axes on-anchor: single coarse row, no buffer.
			src, cEven, cOdd = zd[bll:bll+cn2], c0, c1
		case !o3 && o2:
			fillSum2(b, zd[bll:bll+cn2], zd[blh:blh+cn2], vec)
		case o3 && !o2:
			fillSum2(b, zd[bll:bll+cn2], zd[bhl:bhl+cn2], vec)
		default:
			fillSum4(b, zd[bll:bll+cn2], zd[blh:blh+cn2], zd[bhl:bhl+cn2], zd[bhh:bhh+cn2], vec)
			cEven, cOdd = c2, c3
		}
		oRow := od[base : base+fn2]
		if wd == nil {
			interpRow(oRow, src, cEven, cOdd, m == 0, vec)
			continue
		}
		interpRow(t, src, cEven, cOdd, m == 0, vec)
		fillSum2(oRow[m:fn2-m], wd[base+m:base+fn2-m], t[m:fn2-m], vec)
	}
}

// interpRow writes fine row o from the coarse buffer b: cEven·b[l] on the
// even columns, cOdd·(b[l] + b[l+1]) on the odd ones, vectorised when vec
// is set — the interior, plus the two end columns when ends is set.
func interpRow(o, b []float64, cEven, cOdd float64, ends, vec bool) {
	if ends {
		o[0] = cEven * b[0]
		o[len(o)-1] = cOdd * (b[len(b)-2] + b[len(b)-1])
	}
	if vec {
		simd.InterpRow(o, b, cEven, cOdd)
		return
	}
	for l := 0; l+2 < len(b); l++ {
		o[2*l+1] = cOdd * (b[l] + b[l+1])
		o[2*l+2] = cEven * b[l+1]
	}
}

// fillSum2 and fillSum4 fill a cross-row buffer in the canonical
// association, vectorised when vec is set.
func fillSum2(dst, a, b []float64, vec bool) {
	if vec {
		simd.Sum2(dst, a, b)
		return
	}
	for m := range dst {
		dst[m] = a[m] + b[m]
	}
}

func fillSum4(dst, a, b, c, d []float64, vec bool) {
	if vec {
		simd.Sum4(dst, a, b, c, d)
		return
	}
	for m := range dst {
		dst[m] = ((a[m] + b[m]) + c[m]) + d[m]
	}
}
