// Package stencil implements the 27-point relaxation kernels at the heart
// of NAS-MG. Every V-cycle operation of the benchmark — Resid, Smooth,
// Fine2Coarse, Coarse2Fine — "basically consists of a 27-point stencil
// relaxation operation ... with varying stencil coefficients" (paper, §4).
//
// A stencil is described by four coefficients, one per neighbour distance
// class: the centre element, the 6 face neighbours, the 12 edge neighbours
// and the 8 corner neighbours. The NPB specification provides the four
// coefficient vectors A (residual), S (smoother, size-class dependent),
// P (fine-to-coarse projection) and Q (coarse-to-fine interpolation).
//
// Three kernel variants implement the same relaxation:
//
//   - Relax (generic): a WITH-loop over the inner index space, working for
//     grids of rank 1–3 — the paper's rank-generic RelaxKernel.
//   - relax3Fused: the four-multiplication form for rank-3 grids, used at
//     optimization level O3. The paper notes that sac2c derives this
//     optimization implicitly: only four distinct coefficients occur, so
//     27 multiplications collapse to 4 (still 26 additions).
//   - Relax3Buffered: the Fortran-77 trick of sharing partial row sums
//     between neighbouring result elements through two line buffers,
//     reducing the additions to 12–20. The paper states SAC does *not*
//     perform this optimization — which is exactly why the reference
//     implementation (internal/f77) wins Fig. 11. internal/core deploys
//     the same trick inside its fused kernels (withloop.VariantBuffered).
//
// # The canonical association
//
// All kernels fold neighbour sums in one fixed, line-buffer-compatible
// association so that every variant — generic, fused, buffered, and the
// SIMD rows of internal/simd — produces bit-identical results. Writing
// uXY[k] for the neighbour value at plane offset X, row offset Y and
// column position k, the per-element sums are
//
//	u1[k] = ((uMZ[k] + uZM[k]) + uZP[k]) + uPZ[k]   (in-plane faces)
//	u2[k] = ((uMM[k] + uMP[k]) + uPM[k]) + uPP[k]   (in-plane edges)
//	s1    = (uZZ[k-1] + uZZ[k+1]) + u1[k]
//	s2    = (u2[k] + u1[k-1]) + u1[k+1]
//	s3    = u2[k-1] + u2[k+1]
//	out   = ((c0·uZZ[k] + c1·s1) + c2·s2) + c3·s3
//
// u1 and u2 are pure functions of the column position, so the buffered
// kernel can memoise them in two line buffers (the f77 u1/u2 arrays) and
// the scalar kernels can expand them inline — the same additions in the
// same order either way, hence bit-identical. Within each sub-sum the
// operands appear in the lexicographic order of the neighbour offsets.
package stencil

import (
	"fmt"

	"repro/internal/array"
	"repro/internal/shape"
	wl "repro/internal/withloop"
)

// Coeffs holds one coefficient per neighbour distance class:
// [0] centre, [1] face, [2] edge, [3] corner.
type Coeffs [4]float64

// The NPB 2.3 stencil coefficient vectors (benchmark specification):
var (
	// A is the discrete Poisson operator used by resid.
	A = Coeffs{-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0}
	// SClassSWA is the smoother for size classes S, W and A.
	SClassSWA = Coeffs{-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0}
	// SClassBC is the smoother for size classes B and C.
	SClassBC = Coeffs{-3.0 / 17.0, 1.0 / 33.0, -1.0 / 61.0, 0.0}
	// P is the fine-to-coarse projection operator (rprj3 weights).
	P = Coeffs{1.0 / 2.0, 1.0 / 4.0, 1.0 / 8.0, 1.0 / 16.0}
	// Q is the coarse-to-fine interpolation operator (trilinear weights).
	Q = Coeffs{1.0, 1.0 / 2.0, 1.0 / 4.0, 1.0 / 8.0}
)

// neighbour is one offset of the 3^rank neighbourhood with its distance
// class (the number of non-zero offset components).
type neighbour struct {
	off   []int
	class int
}

// neighbourhood enumerates {-1,0,1}^rank in lexicographic order, excluding
// the centre (class 0), which kernels handle separately.
func neighbourhood(rank int) []neighbour {
	var nbs []neighbour
	off := make([]int, rank)
	for j := range off {
		off[j] = -1
	}
	for {
		class := 0
		for _, d := range off {
			if d != 0 {
				class++
			}
		}
		if class > 0 {
			nbs = append(nbs, neighbour{off: append([]int(nil), off...), class: class})
		}
		// Odometer increment over {-1,0,1}.
		j := rank - 1
		for ; j >= 0; j-- {
			off[j]++
			if off[j] <= 1 {
				break
			}
			off[j] = -1
		}
		if j < 0 {
			return nbs
		}
	}
}

// Relax applies the stencil with the given coefficients to every inner
// element of a, producing a new array whose boundary elements are zero —
// the fixed-boundary relaxation step of the paper's RelaxKernel. Periodic
// boundary conditions are realised by the caller initialising the
// artificial boundary elements beforehand (SetupPeriodicBorder in
// internal/core).
//
// Grids of rank 1–3 are supported (the four coefficient classes cover at
// most three dimensions). At optimization level O3 a fused rank-3 kernel
// with four multiplications per element replaces the generic WITH-loop;
// the results are bit-identical.
func Relax(e *wl.Env, a *array.Array, c Coeffs) *array.Array {
	rank := a.Dim()
	if rank < 1 || rank > 3 {
		panic(fmt.Sprintf("stencil: Relax supports rank 1-3, got %d", rank))
	}
	if e.Opt >= wl.O3 && rank == 3 {
		return relax3Fused(e, a, c)
	}
	nbs := neighbourhood(rank)
	shp := a.Shape()
	strides := shp.Strides()
	// Precompute linear offsets: within the inner generator every
	// neighbour stays in bounds, so offset arithmetic is safe.
	lin := make([]int, len(nbs))
	buckets := make([]int, len(nbs))
	for i, nb := range nbs {
		d := 0
		for j, o := range nb.off {
			d += o * strides[j]
		}
		lin[i] = d
		buckets[i] = bucketOf(nb, rank)
	}
	data := a.Data()
	return e.Genarray(shp, wl.Inner(shp), func(iv shape.Index) float64 {
		off := 0
		for j := range iv {
			off += iv[j] * strides[j]
		}
		// The seven partial sums of the canonical association (package
		// comment); buckets a lower-rank grid does not populate stay
		// exact zeros and drop out of the chains.
		var zk, u1, u2, u1m, u1p, u2m, u2p float64
		for i := range nbs {
			v := data[off+lin[i]]
			switch buckets[i] {
			case bZK:
				zk += v
			case bU1:
				u1 += v
			case bU2:
				u2 += v
			case bU1M:
				u1m += v
			case bU1P:
				u1p += v
			case bU2M:
				u2m += v
			default:
				u2p += v
			}
		}
		s1 := zk + u1
		s2 := (u2 + u1m) + u1p
		s3 := u2m + u2p
		return ((c[0]*data[off] + c[1]*s1) + c[2]*s2) + c[3]*s3
	})
}

// The partial-sum buckets of the canonical association. The last axis is
// the column (k) axis; class-2 neighbours one column over are the u1 terms
// of that column, class-3 neighbours the u2 terms.
const (
	bZK  = iota // class 1, off the column axis: uZZ[k±1]
	bU1         // class 1 in-column: u1[k]
	bU2         // class 2 in-column: u2[k]
	bU1M        // class 2 at column k-1: u1[k-1]
	bU1P        // class 2 at column k+1: u1[k+1]
	bU2M        // class 3 at column k-1: u2[k-1]
	bU2P        // class 3 at column k+1: u2[k+1]
)

// bucketOf classifies a neighbour offset into its partial-sum bucket by
// distance class and offset along the last (column) axis.
func bucketOf(nb neighbour, rank int) int {
	last := nb.off[rank-1]
	switch nb.class {
	case 1:
		if last != 0 {
			return bZK
		}
		return bU1
	case 2:
		switch last {
		case 0:
			return bU2
		case -1:
			return bU1M
		default:
			return bU1P
		}
	default:
		if last < 0 {
			return bU2M
		}
		return bU2P
	}
}

// relax3Fused is the four-multiplication rank-3 kernel. Neighbour sums
// fold in the canonical association (package comment) so that the generic,
// fused and buffered paths all produce identical floating-point results.
func relax3Fused(e *wl.Env, a *array.Array, c Coeffs) *array.Array {
	shp := a.Shape()
	n0, n1, n2 := shp[0], shp[1], shp[2]
	out := e.NewArray(shp) // zero boundary
	ad, od := a.Data(), out.Data()
	if n0 < 3 || n1 < 3 || n2 < 3 {
		return out
	}
	opts := e.ForOpt
	if per := (n1 - 2) * (n2 - 2); per > 0 {
		opts.SeqThreshold = max(opts.SeqThreshold, e.SeqThreshold) / per
	}
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	e.Sched.For(n0-2, opts, func(lo, hi, _ int) {
		for i := lo + 1; i <= hi; i++ {
			for j := 1; j < n1-1; j++ {
				// Row base offsets of the nine (i±1, j±1) rows.
				mm := ((i-1)*n1 + (j - 1)) * n2 // i-1, j-1
				mz := ((i-1)*n1 + j) * n2       // i-1, j
				mp := ((i-1)*n1 + (j + 1)) * n2 // i-1, j+1
				zm := (i*n1 + (j - 1)) * n2     // i,   j-1
				zz := (i*n1 + j) * n2           // i,   j
				zp := (i*n1 + (j + 1)) * n2     // i,   j+1
				pm := ((i+1)*n1 + (j - 1)) * n2 // i+1, j-1
				pz := ((i+1)*n1 + j) * n2       // i+1, j
				pp := ((i+1)*n1 + (j + 1)) * n2 // i+1, j+1
				for k := 1; k < n2-1; k++ {
					// The canonical association, u1/u2 expanded inline at
					// the three columns k-1, k, k+1 (package comment).
					u1m := ((ad[mz+k-1] + ad[zm+k-1]) + ad[zp+k-1]) + ad[pz+k-1]
					u1z := ((ad[mz+k] + ad[zm+k]) + ad[zp+k]) + ad[pz+k]
					u1p := ((ad[mz+k+1] + ad[zm+k+1]) + ad[zp+k+1]) + ad[pz+k+1]
					u2m := ((ad[mm+k-1] + ad[mp+k-1]) + ad[pm+k-1]) + ad[pp+k-1]
					u2z := ((ad[mm+k] + ad[mp+k]) + ad[pm+k]) + ad[pp+k]
					u2p := ((ad[mm+k+1] + ad[mp+k+1]) + ad[pm+k+1]) + ad[pp+k+1]
					s1 := (ad[zz+k-1] + ad[zz+k+1]) + u1z
					s2 := (u2z + u1m) + u1p
					s3 := u2m + u2p
					od[zz+k] = ((c0*ad[zz+k] + c1*s1) + c2*s2) + c3*s3
				}
			}
		}
	})
	return out
}

// Relax3Buffered is the line-buffered Fortran-77 kernel: partial sums along
// the contiguous axis are shared between neighbouring result elements
// through two buffers, cutting the 26 additions per element to 12–20
// (paper, §5). The buffers memoise exactly the u1/u2 sub-sums of the
// canonical association (package comment), so the result is bit-identical
// to Relax. Boundary elements of the result are zero.
//
// buf1 and buf2 must each hold at least shape[2] elements, or be nil to
// allocate internally; passing buffers lets callers hoist the allocation
// out of V-cycle loops like the Fortran code's automatic arrays.
func Relax3Buffered(e *wl.Env, a *array.Array, c Coeffs, buf1, buf2 []float64) *array.Array {
	shp := a.Shape()
	if shp.Rank() != 3 {
		panic(fmt.Sprintf("stencil: Relax3Buffered requires rank 3, got %d", shp.Rank()))
	}
	n0, n1, n2 := shp[0], shp[1], shp[2]
	out := e.NewArray(shp)
	ad, od := a.Data(), out.Data()
	if n0 < 3 || n1 < 3 || n2 < 3 {
		return out
	}
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	run := func(lo, hi, worker int, u1, u2 []float64) {
		for i := lo + 1; i <= hi; i++ {
			for j := 1; j < n1-1; j++ {
				mz := ((i-1)*n1 + j) * n2
				zm := (i*n1 + (j - 1)) * n2
				zz := (i*n1 + j) * n2
				zp := (i*n1 + (j + 1)) * n2
				pz := ((i+1)*n1 + j) * n2
				mm := ((i-1)*n1 + (j - 1)) * n2
				mp := ((i-1)*n1 + (j + 1)) * n2
				pm := ((i+1)*n1 + (j - 1)) * n2
				pp := ((i+1)*n1 + (j + 1)) * n2
				for k := 0; k < n2; k++ {
					// u1: the four class-1 neighbours off the k axis.
					u1[k] = ((ad[mz+k] + ad[zm+k]) + ad[zp+k]) + ad[pz+k]
					// u2: the four class-2 neighbours off the k axis.
					u2[k] = ((ad[mm+k] + ad[mp+k]) + ad[pm+k]) + ad[pp+k]
				}
				for k := 1; k < n2-1; k++ {
					od[zz+k] = ((c0*ad[zz+k] +
						c1*((ad[zz+k-1]+ad[zz+k+1])+u1[k])) +
						c2*((u2[k]+u1[k-1])+u1[k+1])) +
						c3*(u2[k-1]+u2[k+1])
				}
			}
		}
	}
	if e.Workers() == 1 {
		if buf1 == nil {
			buf1 = make([]float64, n2)
		}
		if buf2 == nil {
			buf2 = make([]float64, n2)
		}
		run(0, n0-2, 0, buf1[:n2], buf2[:n2])
		return out
	}
	// Parallel: per-worker buffers (the supplied ones serve worker 0).
	opts := e.ForOpt
	if per := (n1 - 2) * (n2 - 2); per > 0 {
		opts.SeqThreshold = max(opts.SeqThreshold, e.SeqThreshold) / per
	}
	e.Sched.For(n0-2, opts, func(lo, hi, worker int) {
		u1, u2 := buf1, buf2
		if worker != 0 || u1 == nil || u2 == nil {
			u1 = make([]float64, n2)
			u2 = make([]float64, n2)
		}
		run(lo, hi, worker, u1[:n2], u2[:n2])
	})
	return out
}

// FlopsPerElement reports the multiplication and addition counts per inner
// element for each kernel variant — the arithmetic the paper's §5 analysis
// quotes (27 mult/26 add naive, 4 mult fused, 12–20 add buffered).
func FlopsPerElement(variant string) (mults, adds int) {
	switch variant {
	case "naive":
		return 27, 26
	case "fused":
		// 19 in-bucket adds (26 neighbours in 7 buckets) + 4 cross-bucket
		// adds (s1, s2, s3) + 3 class-combining adds.
		return 4, 26
	case "buffered":
		// 6 adds amortised into the two line buffers (u1, u2: 3 each) +
		// 5 combining adds (zk, s1, s2, s3) + 3 class adds per element
		// = 14 (between the paper's 12 and 20).
		return 4, 14
	default:
		panic(fmt.Sprintf("stencil: unknown variant %q", variant))
	}
}
