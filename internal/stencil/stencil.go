// Package stencil defines the 27-point relaxation at the heart of NAS-MG.
// Every V-cycle operation of the benchmark — Resid, Smooth,
// Fine2Coarse, Coarse2Fine — "basically consists of a 27-point stencil
// relaxation operation ... with varying stencil coefficients" (paper, §4).
//
// A stencil is described by four coefficients, one per neighbour distance
// class: the centre element, the 6 face neighbours, the 12 edge neighbours
// and the 8 corner neighbours. The NPB specification provides the four
// coefficient vectors A (residual), S (smoother, size-class dependent),
// P (fine-to-coarse projection) and Q (coarse-to-fine interpolation).
//
// This package holds the four vectors and Relax, the paper's rank-generic
// RelaxKernel: a WITH-loop over the inner index space of a grid of rank
// 1–3. It is the O0–O2 path of internal/core and the reference every
// faster form is tested against. The faster forms are the backends of
// internal/core's plane kernels, the one place a rank-3 row is written:
//
//   - scalar: the four-multiplication form the paper says sac2c derives
//     implicitly (only four distinct coefficients occur, so 27
//     multiplications collapse to 4; still 26 additions).
//   - buffered: the Fortran-77 trick of sharing partial row sums between
//     neighbouring result elements through two line buffers, reducing the
//     additions to 12–20. The paper states SAC does *not* perform this
//     optimization — which is exactly why the reference implementation
//     (internal/f77) wins Fig. 11.
//   - simd: the buffered form with its rows vectorised.
//
// # The canonical association
//
// All kernels fold neighbour sums in one fixed, line-buffer-compatible
// association so that every form — Relax, core's scalar and buffered
// rows, and the SIMD rows of internal/simd — produces bit-identical
// results. For element x[i][j][k] of a grid x the per-element sums are
//
//	u1[k] = ((x[i−1][j][k] + x[i][j−1][k]) + x[i][j+1][k]) + x[i+1][j][k]
//	u2[k] = ((x[i−1][j−1][k] + x[i−1][j+1][k]) + x[i+1][j−1][k]) + x[i+1][j+1][k]
//	s1    = (x[i][j][k−1] + x[i][j][k+1]) + u1[k]
//	s2    = (u2[k] + u1[k−1]) + u1[k+1]
//	s3    = u2[k−1] + u2[k+1]
//	out   = ((c0·x[i][j][k] + c1·s1) + c2·s2) + c3·s3
//
// u1 sums the four face neighbours off the column axis, u2 the four edge
// neighbours off it; u1[k±1] and u2[k±1] are the same sums one column over.
// They are pure functions of the column position, so the buffered
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
// most three dimensions). It is the one relaxation at every optimization
// level: the folded O3 forms are internal/core's plane kernels.
func Relax(e *wl.Env, a *array.Array, c Coeffs) *array.Array {
	rank := a.Dim()
	if rank < 1 || rank > 3 {
		panic(fmt.Sprintf("stencil: Relax supports rank 1-3, got %d", rank))
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
