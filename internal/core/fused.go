// WITH-loop folding: the cross-operation fusions sac2c performs on the MG
// code (Scholz, "Effects of WITH-Loop Folding on the NAS Benchmark MG in
// SAC", IFL'98 — reference [28] of the paper). At optimization level O3 the
// composite expressions of MGrid/VCycle collapse into single traversals:
//
//	v - Resid(u)                 → subRelax   (one pass, no A·u temporary)
//	z + Smooth(r)                → addRelax   (one pass, no S·r temporary)
//	condense(2, Relax(r, P))     → projectCondense (P evaluated only at the
//	                               surviving even points — 1/8 of the work)
//	Relax(take(scatter(rn)), Q)  → interpolate (exploits the zeros of the
//	                               scattered grid: 1–8 reads per element)
//	norm2u3(v - Resid(u))        → subRelaxNorm (the final-residual norms
//	                               accumulate in the residual pass — the
//	                               grid is read once instead of twice)
//
// Each folded kernel reproduces the unfolded composition bit-for-bit
// (modulo the sign of zero): neighbour sums fold in the canonical
// line-buffer-compatible association of internal/stencil (its package
// comment defines the u1/u2/s1/s2/s3 grouping), and additions of exact
// zeros — which is all the folded forms eliminate — cannot change an
// IEEE-754 sum. The package test TestOptLevelsBitIdentical holds the O3
// pipeline to that contract.
//
// One fold further, the kernels of a V-cycle leg fold into each other
// plane by plane (pipeline.go): interpolate → subRelax → addRelax on the
// way up, subRelax → projectCondense on the way down at MGrid's level.
// That is a schedule of these kernels over rings of a few planes, not more
// kernels: the per-plane methods of kern below are the only copy of every
// row statement, shared by the full-grid sweeps, the distributed ranks'
// plane-range entry points (planes.go), the pipelined sweeps and the
// compact periodic rings (compact.go).
//
// # Traversal
//
// Every kernel sweeps its interior planes under the schedule Env.PlanFor
// resolves for its level — the sequential threshold from the environment,
// one contiguous span per worker above it, and the inner-loop kernel
// variant. Within a plane the nine stencil row bases roll forward by one
// row stride per j step instead of being recomputed with per-row
// multiplies. The norm accumulation of subRelaxNorm keeps per-row running
// partials (always left-to-right in k) folded in ascending row and plane
// order, so it is invariant under worker count
// (TestScalarKernelsBitIdentical).
//
// # Kernel variants
//
// Each plane kernel has three interchangeable inner-loop backends:
//
//   - scalar: the rolling-row loops above, u1/u2 sub-sums expanded inline.
//   - buffered: the f77 line-buffer form — u1/u2 memoised in two
//     mempool-backed row buffers threaded through the j sweep, cutting
//     the additions per element from 26 to 14. Because the buffers hold
//     exactly the canonical sub-sums, the results (grids and norms) are
//     bit-identical to scalar.
//   - simd: the buffered form four lanes wide, one AVX2 assembly call per
//     plane (internal/simd): it fills every row's buffers and combines
//     them, interpolate's even/odd interleaving store and
//     projectCondense's stride-2 combine included. Lanes execute the
//     buffered rows' operation tree and drop the same exact-zero terms,
//     so simd output is bit-identical too. Where a primitive declines (no
//     AVX2, MG_SIMD_DISABLE=1, a plane too small for a four-lane block),
//     the buffered rows compute the plane.
//
// Which backend runs is the library's choice, not the caller's, and a
// function of two observables: rows shorter than 8 points run scalar,
// longer rows run simd where the AVX2 path is live and buffered where it
// is not (wl.DefaultVariant). The variant can be forced globally with the
// MG_FORCE_VARIANT environment variable, or per environment with
// Env.Variant; wl.VariantFor is the one place that precedence lives, and
// since all three are bit-identical, none of this can change a result. A
// pipelined sweep asks once per stage, so every one of these levers
// reaches its stages unchanged.
package core

import (
	"math"
	"time"

	"repro/internal/array"
	"repro/internal/mempool"
	"repro/internal/metrics"
	"repro/internal/nas"
	"repro/internal/shape"
	"repro/internal/simd"
	"repro/internal/stencil"
	wl "repro/internal/withloop"
)

// ResidNorm evaluates the NPB verification norms of the final residual,
// ‖v − A·u‖: rnm2 (the scaled L2 norm) and rnmu (the max norm). At O3 on
// rank-3 grids the norm accumulation folds into the residual traversal
// (subRelaxNorm — the residual grid is written and normed in one pass
// instead of being re-read); otherwise the residual is materialised and
// normed separately. Both paths fold the sum of squares in the canonical
// plane/row order of nas.Norm2u3Planes, so the norms are bit-identical
// across optimization levels and worker counts.
func (s *Solver) ResidNorm(v, u *array.Array, n int) (rnm2, rnmu float64) {
	e := s.Env
	if s.foldable(u) {
		var sumSq, maxAbs float64
		r := s.probe("resid", u, func() *array.Array {
			ub := s.SetupPeriodicBorder(u)
			out, sq, mx := s.subRelaxNorm(v, ub, s.Operator)
			s.releaseIfCopy(ub, u)
			sumSq, maxAbs = sq, mx
			return out
		})
		e.Release(r)
		total := float64(n) * float64(n) * float64(n)
		return math.Sqrt(sumSq / total), maxAbs
	}
	return s.ResidNormSeparate(v, u, n)
}

// ResidNormSeparate is the unfused reference for ResidNorm: a residual
// pass followed by a second pass over the stored grid for the norms.
// Exported for the fused-vs-separate ablation benchmarks; Solve uses
// ResidNorm.
func (s *Solver) ResidNormSeparate(v, u *array.Array, n int) (rnm2, rnmu float64) {
	r := s.residSubtract(v, u)
	rnm2, rnmu = nas.Norm2u3Planes(r, n)
	s.Env.Release(r)
	return rnm2, rnmu
}

// foldable reports whether the folded rank-3 kernels apply.
func (s *Solver) foldable(a *array.Array) bool {
	return s.Env.Opt >= wl.O3 && a.Dim() == 3
}

// levelOfExtent computes log2 of an interior extent — the MG level tag.
func levelOfExtent(n int) int {
	l := 0
	for ; n > 1; n >>= 1 {
		l++
	}
	return l
}

// planeLoop is the resolved schedule of one fused-kernel invocation over
// the interior planes [1, n0-1) of a rank-3 grid: the level's plan from
// Env.PlanFor plus what the bookkeeping after the sweep needs.
type planeLoop struct {
	e        *wl.Env
	kernel   string
	level    int
	planes   int // interior plane count, n0-2
	perPlane int // index vectors per plane
	seq      int // sequential threshold in planes
	variant  string
}

func planPlanes(e *wl.Env, kernel string, n0, perPlane int) planeLoop {
	level := levelOfExtent(n0 - 2)
	seq, variant := e.PlanFor(level, perPlane)
	return planeLoop{e: e, kernel: kernel, level: level, planes: n0 - 2, perPlane: perPlane,
		seq: seq, variant: variant}
}

// inline reports whether the sweep runs on the calling goroutine (one
// worker, or at most SeqThreshold planes — sched.For's own rule). Kernels
// then call their plane-range function directly: a closure handed to
// sched.For escapes to the heap, and the direct call keeps a sequential
// warm solve free of garbage.
func (p *planeLoop) inline() bool {
	return p.e.Workers() == 1 || p.planes <= p.seq
}

// interior is the whole sweep as one span: the planes an inline call covers.
func (p *planeLoop) interior() PlaneSpan { return PlaneSpan{Lo: 1, Hi: p.planes, Frame: true} }

// fanOut partitions the interior planes across the environment's workers.
func (p *planeLoop) fanOut(body func(PlaneSpan)) {
	p.e.Sched.For(p.planes, p.seq, func(lo, hi, _ int) { body(PlaneSpan{Lo: lo + 1, Hi: hi, Frame: true}) })
}

// finish closes the invocation after the sweep. od is the kernel's output
// storage: with a health monitor attached it gets the sampled NaN/Inf
// guard (observe.go), inside the timed window. With a collector attached
// the invocation is recorded under (kernel, level) as the time since
// started (Solver.exchanged, read before the kernel allocated its output);
// without any sink the only extra cost is two nil checks.
func (p *planeLoop) finish(started time.Duration, od []float64) {
	healthSample(p.e, p.kernel, p.level, od)
	if p.e.Metrics != nil {
		p.record(clock() - started)
	}
}

// record files one invocation of the loop's kernel that took elapsed.
func (p *planeLoop) record(elapsed time.Duration) {
	p.e.Metrics.RecordVariant(0, p.kernel, p.level, p.variant, int64(p.planes)*int64(p.perPlane), elapsed)
}

// KernelCosts is the per-point work model of the fused kernels, feeding
// the derived GFLOP/s and bandwidth columns of the metrics report. Flops
// count the arithmetic of one output point (the A stencil drops its zero
// c1 term, the S stencil its zero c3 term); bytes count unique stream
// traffic (input grids read once, the output written once — cache-resident
// stencil re-reads excluded, so the column reads as effective bandwidth).
var KernelCosts = map[string]metrics.Cost{
	"subRelax":        {Flops: 24, Bytes: 3 * 8}, // reads u, v; writes out
	"addRelax":        {Flops: 23, Bytes: 3 * 8}, // reads z, r; writes out
	"projectCondense": {Flops: 30, Bytes: 2 * 8}, // reads 8 fine pts (≈1 stream per coarse pt); writes out
	"interpolate":     {Flops: 4, Bytes: 2 * 8},  // reads ≤1 coarse pt per fine pt; writes out
	"comm3":           {Flops: 0, Bytes: 2 * 8},  // border exchange: each boundary pt read + written
	"genarray":        {Flops: 0, Bytes: 8},      // grid initialization: each pt written once
	metrics.TotalKernel: {
		// The NPB whole-benchmark operation count: 58 flops per fine
		// grid point per iteration (nas.Class.FlopCount), ~4 streams.
		Flops: 58, Bytes: 4 * 8,
	},
}

// KernelCost resolves the per-point work model for a (kernel, variant)
// pair: the line-buffered variants amortise the u1/u2 row sums across the
// sliding k window, so their per-point flop counts are lower than the
// scalar recomputation — without this, buffered/simd sweeps would be
// costed as scalar and the report's GFLOP/s would overstate the work done. Unknown variants (and
// scalar) fall back to KernelCosts; byte counts are variant-independent.
func KernelCost(kernel, variant string) metrics.Cost {
	if lined(variant) {
		if c, ok := bufferedKernelCosts[kernel]; ok {
			return c
		}
	}
	return KernelCosts[kernel]
}

// HasVariants reports whether kernel dispatches on the kernel variant.
// Only the rank-3 fused plane kernels do; the rest (border exchange,
// initialization, pseudo-kernel totals) have a single backend.
func HasVariants(kernel string) bool {
	_, ok := bufferedKernelCosts[kernel]
	return ok
}

// bufferedKernelCosts: per-point flops of the line-buffered forms. Each
// output point pays its share of the row-buffer fills (6 adds: two
// 4-term sums per point, reused 3× as the window slides) plus the
// combine. subRelax drops c1 (6+2+1 adds, 3 mults, 2 combines, 1 sub =
// 15); addRelax drops c3 (6+2+2 adds, 3 mults, 2 combines, 1 add = 16);
// projectCondense consumes only even fine columns so each coarse point
// pays 12 fill adds (+5 s-adds, 4 mults, 3 combines = 24); interpolate
// averages ≈3 (one buffered fill add plus a mult, or a mult alone). The
// simd variant drops the same zero terms, so its flops are these.
var bufferedKernelCosts = map[string]metrics.Cost{
	"subRelax":        {Flops: 15, Bytes: 3 * 8},
	"addRelax":        {Flops: 16, Bytes: 3 * 8},
	"projectCondense": {Flops: 24, Bytes: 2 * 8},
	"interpolate":     {Flops: 3, Bytes: 2 * 8},
}

// lined reports whether a variant selects the line-buffered form
// (buffered or simd); scalar is the only other name wl.VariantFor lets
// through.
func lined(variant string) bool {
	return variant == wl.VariantBuffered || variant == wl.VariantSIMD
}

// kern is one sweep's handle on a plane kernel: the resolved backend and
// the row buffers it threads through the rows of every plane it computes.
// Its methods take planes, not grids — a plane of the output and the
// planes of the inputs the stencil reaches — so the same row statements
// serve a full grid (SubRelaxPlanes and friends slice it), a rank's slab,
// and the few-plane rings of pipeline.go. Each scheduler partition
// borrows its own kern (worker-local by construction), so parallel sweeps
// stay allocation-free once the pool is warm. With vec set (the simd
// backend) a method first offers its plane to internal/simd's primitive,
// one assembly call for all the plane's rows, and runs the buffered rows
// only when the primitive declines. The relax kernels borrow one buffer of
// simd.RelaxLines rows in u1 (borrowRelax), of which the buffered rows use
// the first two.
type kern struct {
	lined, vec bool
	frame      bool      // also write each plane's frame (PlaneSpan.Frame)
	u1, u2     []float64 // row buffers of the lined backends
}

// borrowKern resolves variant and borrows the lined backends' row buffers
// (lengths b1, b2; zero for none) from pool; release puts them back.
func borrowKern(pool *mempool.Pool, variant string, frame bool, b1, b2 int) kern {
	k := kern{lined: lined(variant), vec: variant == wl.VariantSIMD, frame: frame}
	if k.lined {
		k.u1 = pool.GetDirty(b1)
		if b2 > 0 {
			k.u2 = pool.GetDirty(b2)
		}
	}
	return k
}

// borrowRelax is borrowKern for subRelax and addRelax, whose rows are n2
// long: one buffer of simd.RelaxLines rows.
func borrowRelax(pool *mempool.Pool, variant string, frame bool, n2 int) kern {
	return borrowKern(pool, variant, frame, simd.RelaxLines*n2, 0)
}

// lines are the buffered rows' line buffers u1 and u2 for rows of n2.
func (k *kern) lines(n2 int) (u1, u2 []float64) {
	return k.u1[:n2], k.u1[n2 : 2*n2]
}

func (k *kern) release(pool *mempool.Pool) {
	pool.Put(k.u1)
	pool.Put(k.u2)
}

// planeOf is plane i of a flat grid whose planes hold pl elements; an
// absent (nil) operand grid stays absent.
func planeOf(d []float64, i, pl int) []float64 {
	if d == nil {
		return nil
	}
	return d[i*pl : (i+1)*pl]
}

// subRelax computes out = v − Relax(u, c): the folded form of
// aplib.Sub(v, Resid(u)). u must have its periodic border prepared.
// Boundary elements are v's (the relaxation contributes zero there).
func (s *Solver) subRelax(v, u *array.Array, c stencil.Coeffs) *array.Array {
	out, _, _ := s.subRelaxSweep(v, u, c, false)
	return out
}

// subRelaxNorm computes out = v − Relax(u, c) and, in the same traversal,
// the NPB norm partials of out's interior: the sum of squares folded in
// the canonical row→plane order of nas.Norm2u3Planes, and the maximum
// absolute value. One grid read replaces the resid-then-norm two-pass
// sequence. Each row's partial accumulates strictly left-to-right in k
// from the stored row, rows fold in ascending j and planes in ascending i,
// so the sums are bit-identical for every backend and worker count.
func (s *Solver) subRelaxNorm(v, u *array.Array, c stencil.Coeffs) (out *array.Array, sumSq, maxAbs float64) {
	return s.subRelaxSweep(v, u, c, true)
}

func (s *Solver) subRelaxSweep(v, u *array.Array, c stencil.Coeffs, norm bool) (out *array.Array, sumSq, maxAbs float64) {
	e, started := s.Env, s.exchanged
	shp := u.Shape()
	n0, n1, n2 := shp[0], shp[1], shp[2]
	out = e.NewArrayDirty(shp)
	od, vd, ud := out.Data(), v.Data(), u.Data()
	endPlanes(od, vd, nil, n0, n1*n2)
	var sums, maxs []float64
	if norm {
		sums, maxs = e.Pool.GetDirty(n0), e.Pool.GetDirty(n0)
	}
	pl := planPlanes(e, "subRelax", n0, (n1-2)*(n2-2))
	variant := pl.variant
	if pl.inline() {
		SubRelaxPlanes(e.Pool, od, vd, ud, n1, n2, pl.interior(), variant, c, sums, maxs)
	} else {
		pl.fanOut(func(p PlaneSpan) { SubRelaxPlanes(e.Pool, od, vd, ud, n1, n2, p, variant, c, sums, maxs) })
	}
	pl.finish(started, od)
	if norm {
		sumSq, maxAbs = foldNorms(sums, maxs, n0)
		e.Pool.Put(sums)
		e.Pool.Put(maxs)
	}
	return out, sumSq, maxAbs
}

// foldNorms folds the per-plane norm partials of interior planes
// 1..n0−2 in ascending plane order; maxs may be nil.
func foldNorms(sums, maxs []float64, n0 int) (sumSq, maxAbs float64) {
	for i := 1; i < n0-1; i++ {
		sumSq += sums[i]
		if maxs != nil && maxs[i] > maxAbs {
			maxAbs = maxs[i]
		}
	}
	return sumSq, maxAbs
}

// SubRelaxPlanes is the plane-range entry point of subRelax (planes.go):
// out = v − Relax(u, c) on the interior rows of planes p. od may alias vd
// (each element reads only its own v). With sums non-nil it is the
// subRelaxNorm sweep and stores each plane's sum of squares at its plane
// index, and with maxs non-nil its largest absolute value too.
func SubRelaxPlanes(pool *mempool.Pool, od, vd, ud []float64, n1, n2 int, p PlaneSpan, variant string,
	c stencil.Coeffs, sums, maxs []float64) {
	k := borrowRelax(pool, variant, p.Frame, n2)
	pl := n1 * n2
	for i := p.Lo; i <= p.Hi; i++ {
		sum, maxAbs := k.subRelax(planeOf(od, i, pl), planeOf(vd, i, pl),
			planeOf(ud, i-1, pl), planeOf(ud, i, pl), planeOf(ud, i+1, pl), n1, n2, c, sums != nil, maxs != nil)
		if sums != nil {
			sums[i] = sum
		}
		if maxs != nil {
			maxs[i] = maxAbs
		}
	}
	k.release(pool)
}

// subRelax computes one plane of subRelax, o = v − Relax(u, c), from u's
// planes below, at and above it; with norm set it also returns the plane's
// sum of squares, folded from the stored rows, and with abs set their
// largest absolute value (0 without it). The health monitor reads only the
// sum, and the simd fold of the sum alone is the cheaper one.
func (k *kern) subRelax(o, v, um, uz, up []float64, n1, n2 int, c stencil.Coeffs, norm, abs bool) (sum, maxAbs float64) {
	done := false
	if k.vec {
		sum, maxAbs, done = simd.SubRelaxPlane(o, v, um, uz, up, n1, n2, (*[4]float64)(&c), k.u1, norm, abs)
	}
	if !done && !k.lined {
		subRelaxPlane(o, v, um, uz, up, n1, n2, c)
	}
	if !done && (k.lined || norm) {
		var u1, u2 []float64
		if k.lined {
			u1, u2 = k.lines(n2)
		}
		for zz := n2; zz < (n1-1)*n2; zz += n2 {
			if k.lined {
				subRelaxRowLined(o, v, um, uz, up, zz, n2, c, u1, u2)
			}
			if !norm {
				continue
			}
			acc, m := nas.SumSquares(o[zz+1:zz+n2-1], maxAbs)
			sum += acc
			if abs {
				maxAbs = m
			}
		}
	}
	if k.frame {
		writeFrame(o, v, nil, n1, n2)
	}
	return sum, maxAbs
}

// subRelaxPlane is the scalar backend of kern.subRelax. The row base rolls
// forward one row stride per j step in all three input planes; the j±1
// neighbour rows are one stride either side.
func subRelaxPlane(o, v, um, uz, up []float64, n1, n2 int, c stencil.Coeffs) {
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	for zz := n2; zz < (n1-1)*n2; zz += n2 {
		uMM, uMZ, uMP := um[zz-n2:zz], um[zz:zz+n2], um[zz+n2:zz+2*n2]
		uZM, uZZ, uZP := uz[zz-n2:zz], uz[zz:zz+n2], uz[zz+n2:zz+2*n2]
		uPM, uPZ, uPP := up[zz-n2:zz], up[zz:zz+n2], up[zz+n2:zz+2*n2]
		oZZ, vZZ := o[zz:zz+n2], v[zz:zz+n2]
		if c1 == 0 {
			// Constant folding of the zero face coefficient (the
			// A stencil): c1·s1 is an exact zero, so c0·x + c1·s1
			// equals c0·x and s1's additions disappear — the
			// specialization sac2c derives from the constant
			// coefficient vector.
			for k := 1; k < n2-1; k++ {
				u1m := ((uMZ[k-1] + uZM[k-1]) + uZP[k-1]) + uPZ[k-1]
				u1p := ((uMZ[k+1] + uZM[k+1]) + uZP[k+1]) + uPZ[k+1]
				u2m := ((uMM[k-1] + uMP[k-1]) + uPM[k-1]) + uPP[k-1]
				u2z := ((uMM[k] + uMP[k]) + uPM[k]) + uPP[k]
				u2p := ((uMM[k+1] + uMP[k+1]) + uPM[k+1]) + uPP[k+1]
				s2 := (u2z + u1m) + u1p
				s3 := u2m + u2p
				oZZ[k] = vZZ[k] - ((c0*uZZ[k] + c2*s2) + c3*s3)
			}
			continue
		}
		for k := 1; k < n2-1; k++ {
			u1m := ((uMZ[k-1] + uZM[k-1]) + uZP[k-1]) + uPZ[k-1]
			u1z := ((uMZ[k] + uZM[k]) + uZP[k]) + uPZ[k]
			u1p := ((uMZ[k+1] + uZM[k+1]) + uZP[k+1]) + uPZ[k+1]
			u2m := ((uMM[k-1] + uMP[k-1]) + uPM[k-1]) + uPP[k-1]
			u2z := ((uMM[k] + uMP[k]) + uPM[k]) + uPP[k]
			u2p := ((uMM[k+1] + uMP[k+1]) + uPM[k+1]) + uPP[k+1]
			s1 := (uZZ[k-1] + uZZ[k+1]) + u1z
			s2 := (u2z + u1m) + u1p
			s3 := u2m + u2p
			oZZ[k] = vZZ[k] - (((c0*uZZ[k] + c1*s1) + c2*s2) + c3*s3)
		}
	}
}

// addRelax computes out = z + Relax(r, c): the folded form of
// aplib.Add(z, Smooth(r)). r must have its periodic border prepared;
// boundary elements are z's.
func (s *Solver) addRelax(z, r *array.Array, c stencil.Coeffs) *array.Array {
	return s.addRelaxSweep(nil, z, r, c)
}

// addRelaxPlus computes out = u + (z + Relax(r, c)): the folded MGrid
// iteration tail u + VCycle-result. The inner parenthesisation matches the
// unfolded Add(u, addRelax(z, r)) bit for bit. r must have its periodic
// border prepared; boundary elements are u + z.
func (s *Solver) addRelaxPlus(u, z, r *array.Array, c stencil.Coeffs) *array.Array {
	return s.addRelaxSweep(u, z, r, c)
}

// addRelaxSweep is the shared sweep of addRelax (u == nil) and
// addRelaxPlus.
func (s *Solver) addRelaxSweep(u, z, r *array.Array, c stencil.Coeffs) *array.Array {
	e, started := s.Env, s.exchanged
	shp := z.Shape()
	n0, n1, n2 := shp[0], shp[1], shp[2]
	out := e.NewArrayDirty(shp)
	od, zd, rd := out.Data(), z.Data(), r.Data()
	var ud []float64
	if u != nil {
		ud = u.Data()
	}
	endPlanes(od, zd, ud, n0, n1*n2)
	pl := planPlanes(e, "addRelax", n0, (n1-2)*(n2-2))
	variant := pl.variant
	if pl.inline() {
		AddRelaxPlanes(e.Pool, od, zd, ud, rd, n1, n2, pl.interior(), variant, c)
	} else {
		pl.fanOut(func(p PlaneSpan) { AddRelaxPlanes(e.Pool, od, zd, ud, rd, n1, n2, p, variant, c) })
	}
	pl.finish(started, od)
	return out
}

// AddRelaxPlanes is the plane-range entry point of addRelax (ud == nil,
// out = z + Relax(r, c)) and addRelaxPlus (out = u + (z + Relax(r, c))) on
// the interior rows of planes p (planes.go). od may alias zd or ud.
func AddRelaxPlanes(pool *mempool.Pool, od, zd, ud, rd []float64, n1, n2 int, p PlaneSpan, variant string, c stencil.Coeffs) {
	k := borrowRelax(pool, variant, p.Frame, n2)
	pl := n1 * n2
	for i := p.Lo; i <= p.Hi; i++ {
		k.addRelax(planeOf(od, i, pl), planeOf(zd, i, pl), planeOf(ud, i, pl),
			planeOf(rd, i-1, pl), planeOf(rd, i, pl), planeOf(rd, i+1, pl), n1, n2, c)
	}
	k.release(pool)
}

// addRelax computes one plane of addRelax (u == nil, o = z + S·r) or
// addRelaxPlus (o = u + (z + S·r)) from r's planes below, at and above it.
func (k *kern) addRelax(o, z, u, rm, rz, rp []float64, n1, n2 int, c stencil.Coeffs) {
	switch {
	case k.vec && simd.AddRelaxPlane(o, z, u, rm, rz, rp, n1, n2, (*[4]float64)(&c), k.u1):
	case k.lined:
		u1, u2 := k.lines(n2)
		addRelaxPlaneLined(o, z, u, rm, rz, rp, n1, n2, c, u1, u2)
	default:
		addRelaxPlane(o, z, u, rm, rz, rp, n1, n2, c)
	}
	if k.frame {
		writeFrame(o, z, u, n1, n2)
	}
}

// addRelaxPlane is the scalar backend of kern.addRelax, with a rolling row
// base like subRelaxPlane.
func addRelaxPlane(o, z, u, rm, rz, rp []float64, n1, n2 int, c stencil.Coeffs) {
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	for zz := n2; zz < (n1-1)*n2; zz += n2 {
		rMM, rMZ, rMP := rm[zz-n2:zz], rm[zz:zz+n2], rm[zz+n2:zz+2*n2]
		rZM, rZZ, rZP := rz[zz-n2:zz], rz[zz:zz+n2], rz[zz+n2:zz+2*n2]
		rPM, rPZ, rPP := rp[zz-n2:zz], rp[zz:zz+n2], rp[zz+n2:zz+2*n2]
		oZZ, zZZ := o[zz:zz+n2], z[zz:zz+n2]
		switch {
		case u == nil && c3 == 0:
			// Constant folding of the zero corner coefficient
			// (the S stencils): c3·s3 was an exact zero, so s3's
			// corner additions disappear.
			for k := 1; k < n2-1; k++ {
				u1m := ((rMZ[k-1] + rZM[k-1]) + rZP[k-1]) + rPZ[k-1]
				u1z := ((rMZ[k] + rZM[k]) + rZP[k]) + rPZ[k]
				u1p := ((rMZ[k+1] + rZM[k+1]) + rZP[k+1]) + rPZ[k+1]
				u2z := ((rMM[k] + rMP[k]) + rPM[k]) + rPP[k]
				s1 := (rZZ[k-1] + rZZ[k+1]) + u1z
				s2 := (u2z + u1m) + u1p
				oZZ[k] = zZZ[k] + ((c0*rZZ[k] + c1*s1) + c2*s2)
			}
		case u == nil:
			for k := 1; k < n2-1; k++ {
				u1m := ((rMZ[k-1] + rZM[k-1]) + rZP[k-1]) + rPZ[k-1]
				u1z := ((rMZ[k] + rZM[k]) + rZP[k]) + rPZ[k]
				u1p := ((rMZ[k+1] + rZM[k+1]) + rZP[k+1]) + rPZ[k+1]
				u2m := ((rMM[k-1] + rMP[k-1]) + rPM[k-1]) + rPP[k-1]
				u2z := ((rMM[k] + rMP[k]) + rPM[k]) + rPP[k]
				u2p := ((rMM[k+1] + rMP[k+1]) + rPM[k+1]) + rPP[k+1]
				s1 := (rZZ[k-1] + rZZ[k+1]) + u1z
				s2 := (u2z + u1m) + u1p
				s3 := u2m + u2p
				oZZ[k] = zZZ[k] + (((c0*rZZ[k] + c1*s1) + c2*s2) + c3*s3)
			}
		case c3 == 0:
			uZZ := u[zz : zz+n2]
			for k := 1; k < n2-1; k++ {
				u1m := ((rMZ[k-1] + rZM[k-1]) + rZP[k-1]) + rPZ[k-1]
				u1z := ((rMZ[k] + rZM[k]) + rZP[k]) + rPZ[k]
				u1p := ((rMZ[k+1] + rZM[k+1]) + rZP[k+1]) + rPZ[k+1]
				u2z := ((rMM[k] + rMP[k]) + rPM[k]) + rPP[k]
				s1 := (rZZ[k-1] + rZZ[k+1]) + u1z
				s2 := (u2z + u1m) + u1p
				oZZ[k] = uZZ[k] + (zZZ[k] + ((c0*rZZ[k] + c1*s1) + c2*s2))
			}
		default:
			uZZ := u[zz : zz+n2]
			for k := 1; k < n2-1; k++ {
				u1m := ((rMZ[k-1] + rZM[k-1]) + rZP[k-1]) + rPZ[k-1]
				u1z := ((rMZ[k] + rZM[k]) + rZP[k]) + rPZ[k]
				u1p := ((rMZ[k+1] + rZM[k+1]) + rZP[k+1]) + rPZ[k+1]
				u2m := ((rMM[k-1] + rMP[k-1]) + rPM[k-1]) + rPP[k-1]
				u2z := ((rMM[k] + rMP[k]) + rPM[k]) + rPP[k]
				u2p := ((rMM[k+1] + rMP[k+1]) + rPM[k+1]) + rPP[k+1]
				s1 := (rZZ[k-1] + rZZ[k+1]) + u1z
				s2 := (u2z + u1m) + u1p
				s3 := u2m + u2p
				oZZ[k] = uZZ[k] + (zZZ[k] + (((c0*rZZ[k] + c1*s1) + c2*s2) + c3*s3))
			}
		}
	}
}

// projectCondense computes the folded Fine2Coarse tail:
// embed(shape+1, 0, condense(2, Relax(r, c))) — the P stencil evaluated
// only at the even fine points that survive condensation. r must have its
// periodic border prepared. The coarse boundary is zero, exactly like the
// unfolded relax (zero border) → condense → embed chain.
func (s *Solver) projectCondense(r *array.Array, c stencil.Coeffs) *array.Array {
	e, started := s.Env, s.exchanged
	mf := r.Shape()[0]
	// condense halves the extent (mf/2), embed adds the missing boundary
	// element: the coarse extended extent is mf/2 + 1.
	mo := mf/2 + 1
	out := e.NewArrayDirty(shape.Of(mo, mo, mo))
	od, rd := out.Data(), r.Data()
	endPlanes(od, nil, nil, mo, mo*mo)
	pl := planPlanes(e, "projectCondense", mo, (mo-2)*(mo-2))
	variant := pl.variant
	if pl.inline() {
		ProjectCondensePlanes(e.Pool, od, rd, mf, mf, pl.interior(), variant, c)
	} else {
		pl.fanOut(func(p PlaneSpan) { ProjectCondensePlanes(e.Pool, od, rd, mf, mf, p, variant, c) })
	}
	pl.finish(started, od)
	return out
}

// ProjectCondensePlanes is the plane-range entry point of projectCondense
// (planes.go): the interior rows of the coarse planes p, from a fine box
// with lateral extents (fn1, fn2). The coarse box has f/2 + 1 points per
// fine extent f, coarse point j under fine point 2j on every axis.
func ProjectCondensePlanes(pool *mempool.Pool, od, rd []float64, fn1, fn2 int, p PlaneSpan, variant string, c stencil.Coeffs) {
	k := borrowKern(pool, variant, p.Frame, fn2, fn2)
	fpl, cpl := fn1*fn2, (fn1/2+1)*(fn2/2+1)
	for jc := p.Lo; jc <= p.Hi; jc++ {
		k.project(planeOf(od, jc, cpl), planeOf(rd, 2*jc-1, fpl), planeOf(rd, 2*jc, fpl), planeOf(rd, 2*jc+1, fpl), fn1, fn2, c)
	}
	k.release(pool)
}

// project computes one coarse plane of projectCondense from the fine
// planes below, at and above the fine plane it sits under.
func (k *kern) project(o, rm, rz, rp []float64, fn1, fn2 int, c stencil.Coeffs) {
	switch {
	case k.vec && simd.ProjectPlane(o, rm, rz, rp, fn1, fn2, (*[4]float64)(&c), k.u1, k.u2):
	case k.lined:
		projectCondensePlaneLined(o, rm, rz, rp, fn1, fn2, c, k.u1, k.u2)
	default:
		projectCondensePlane(o, rm, rz, rp, fn1, fn2, c)
	}
	if k.frame {
		writeFrame(o, nil, nil, fn1/2+1, fn2/2+1)
	}
}

// projectCondensePlane is the scalar backend of kern.project, over the
// coarse index space. The fine row base advances two row strides per
// coarse row.
func projectCondensePlane(o, rm, rz, rp []float64, fn1, fn2 int, c stencil.Coeffs) {
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	cn1, cn2 := fn1/2+1, fn2/2+1
	for zz, base := 2*fn2, cn2; base < (cn1-1)*cn2; zz, base = zz+2*fn2, base+cn2 {
		zm, zp := zz-fn2, zz+fn2
		for j1 := 1; j1 < cn2-1; j1++ {
			k := 2 * j1
			u1m := ((rm[zz+k-1] + rz[zm+k-1]) + rz[zp+k-1]) + rp[zz+k-1]
			u1z := ((rm[zz+k] + rz[zm+k]) + rz[zp+k]) + rp[zz+k]
			u1p := ((rm[zz+k+1] + rz[zm+k+1]) + rz[zp+k+1]) + rp[zz+k+1]
			u2m := ((rm[zm+k-1] + rm[zp+k-1]) + rp[zm+k-1]) + rp[zp+k-1]
			u2z := ((rm[zm+k] + rm[zp+k]) + rp[zm+k]) + rp[zp+k]
			u2p := ((rm[zm+k+1] + rm[zp+k+1]) + rp[zm+k+1]) + rp[zp+k+1]
			s1 := (rz[zz+k-1] + rz[zz+k+1]) + u1z
			s2 := (u2z + u1m) + u1p
			s3 := u2m + u2p
			o[base+j1] = ((c0*rz[zz+k] + c1*s1) + c2*s2) + c3*s3
		}
	}
}

// interpolate computes the folded Coarse2Fine:
// Relax(take(shape−2, scatter(2, rn)), Q) — exploiting that the scattered
// grid is zero except at even positions, so each fine element is a
// Q-weighted sum of its 1, 2, 4 or 8 nearest coarse points (trilinear
// interpolation). rn must have its periodic border prepared. The
// contributing coarse values fold in the canonical association of the
// generic kernel (each parity case is a surviving u1/u2 sub-sum chain),
// so the result is bit-identical to the unfolded chain (the eliminated
// terms are exact zeros).
func (s *Solver) interpolate(rn *array.Array, c stencil.Coeffs) *array.Array {
	e, started := s.Env, s.exchanged
	mc := rn.Shape()[0]
	mf := 2*mc - 2
	out := e.NewArrayDirty(shape.Of(mf, mf, mf))
	od, zd := out.Data(), rn.Data()
	endPlanes(od, nil, nil, mf, mf*mf)
	pl := planPlanes(e, "interpolate", mf, (mf-2)*(mf-2))
	variant := pl.variant
	if pl.inline() {
		InterpolatePlanes(e.Pool, od, zd, mc, mc, pl.interior(), variant, c)
	} else {
		pl.fanOut(func(p PlaneSpan) { InterpolatePlanes(e.Pool, od, zd, mc, mc, p, variant, c) })
	}
	pl.finish(started, od)
	return out
}

// InterpolatePlanes is the plane-range entry point of interpolate
// (planes.go): out = Q·z on the interior rows and columns of the fine
// planes p, from a coarse box with lateral extents (cn1, cn2). The fine box
// has 2c − 2 points per coarse extent c, fine point 2j on coarse point j.
func InterpolatePlanes(pool *mempool.Pool, od, zd []float64, cn1, cn2 int, p PlaneSpan, variant string, c stencil.Coeffs) {
	k := borrowKern(pool, variant, p.Frame, cn2, 0)
	fpl, cpl := (2*cn1-2)*(2*cn2-2), cn1*cn2
	for f3 := p.Lo; f3 <= p.Hi; f3++ {
		k.interpolate(planeOf(od, f3, fpl), planeOf(zd, f3/2, cpl), planeOf(zd, (f3+1)/2, cpl), f3&1 == 1, cn1, cn2, 1, c)
	}
	k.release(pool)
}

// interpolate computes o = Q·z on rows and columns [m, extent−m) of one
// fine plane from the coarse planes zl and zh it lies on or between (the
// same plane twice when the fine plane index is even; o3 says it is odd).
// With m = 0 the frame is interpolated from z's halo like any other point.
func (k *kern) interpolate(o, zl, zh []float64, o3 bool, cn1, cn2, m int, c stencil.Coeffs) {
	switch {
	case k.vec && simd.InterpPlane(o, zl, zh, o3, cn1, cn2, m, (*[4]float64)(&c), k.u1):
	case k.lined:
		// One cross-row buffer of coarse-row length suffices: the parity
		// cases pair at most the four coarse rows of one fine row.
		interpolatePlaneLined(o, zl, zh, o3, cn1, cn2, m, c, k.u1)
	default:
		interpolatePlane(o, zl, zh, o3, cn1, cn2, m, c)
	}
	if k.frame {
		writeFrame(o, nil, nil, 2*cn1-2, 2*cn2-2)
	}
}

// interpolatePlane is the scalar backend of kern.interpolate, over the
// fine index space. The four contributing coarse row bases are derived
// with one multiply per row (the high row is the low row or one stride
// above).
func interpolatePlane(o, zl, zh []float64, o3 bool, cn1, cn2, m int, c stencil.Coeffs) {
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	fn1, fn2 := 2*cn1-2, 2*cn2-2
	for f2, base := m, m*fn2; f2 < fn1-m; f2, base = f2+1, base+fn2 {
		l2, h2, o2 := f2/2, (f2+1)/2, f2&1 == 1
		// Row bases of the up-to-four contributing coarse rows:
		// low and high row in zl, and the same two in zh.
		bl := l2 * cn2
		bh := bl + (h2-l2)*cn2
		for f1 := m; f1 < fn2-m; f1++ {
			l1, h1, o1 := f1/2, (f1+1)/2, f1&1 == 1
			var val float64
			switch {
			case !o3 && !o2 && !o1:
				val = c0 * zl[bl+l1]
			case !o3 && !o2 && o1:
				val = c1 * (zl[bl+l1] + zl[bl+h1])
			case !o3 && o2 && !o1:
				val = c1 * (zl[bl+l1] + zl[bh+l1])
			case o3 && !o2 && !o1:
				val = c1 * (zl[bl+l1] + zh[bl+l1])
			case !o3 && o2 && o1:
				val = c2 * ((zl[bl+l1] + zl[bh+l1]) + (zl[bl+h1] + zl[bh+h1]))
			case o3 && !o2 && o1:
				val = c2 * ((zl[bl+l1] + zh[bl+l1]) + (zl[bl+h1] + zh[bl+h1]))
			case o3 && o2 && !o1:
				val = c2 * (((zl[bl+l1] + zl[bh+l1]) + zh[bl+l1]) + zh[bh+l1])
			default:
				val = c3 * ((((zl[bl+l1] + zl[bh+l1]) + zh[bl+l1]) + zh[bh+l1]) +
					(((zl[bl+h1] + zl[bh+h1]) + zh[bl+h1]) + zh[bh+h1]))
			}
			o[base+f1] = val
		}
	}
}

// setRun writes o[lo:hi] = a + b — a alone when b is nil, zero when a is
// nil too: the boundary value of a kernel whose interior is a relaxation
// added to a (and b), the relaxation contributing zero there.
func setRun(o, a, b []float64, lo, hi int) {
	switch {
	case a == nil:
		clear(o[lo:hi])
	case b == nil:
		copy(o[lo:hi], a[lo:hi])
	default:
		for x := lo; x < hi; x++ {
			o[x] = a[x] + b[x]
		}
	}
}

// writeFrame writes the boundary value (setRun) on the frame of one plane
// — rows 0 and n1−1, columns 0 and n2−1. The plane kernels call it right
// after the plane's rows, while they are in cache. The columns take
// setRun's three cases as three loops, so the case is chosen once per plane.
func writeFrame(o, a, b []float64, n1, n2 int) {
	bot := (n1 - 1) * n2
	setRun(o, a, b, 0, n2)
	frameColumns(o, a, b, n1, n2)
	setRun(o, a, b, bot, bot+n2)
}

// frameColumns is writeFrame's columns: rows 1 … n1−2 of a plane of n1 rows.
func frameColumns(o, a, b []float64, n1, n2 int) {
	bot := (n1 - 1) * n2
	switch {
	case a == nil:
		for row := n2; row < bot; row += n2 {
			o[row], o[row+n2-1] = 0, 0
		}
	case b == nil:
		for row := n2; row < bot; row += n2 {
			o[row], o[row+n2-1] = a[row], a[row+n2-1]
		}
	default:
		for row := n2; row < bot; row += n2 {
			o[row], o[row+n2-1] = a[row]+b[row], a[row+n2-1]+b[row+n2-1]
		}
	}
}

// endPlanes writes the boundary value on planes 0 and n0−1 of a grid; with
// the frames the plane kernels write, that is the whole boundary.
func endPlanes(o, a, b []float64, n0, pl int) {
	setRun(o, a, b, 0, pl)
	setRun(o, a, b, (n0-1)*pl, n0*pl)
}
