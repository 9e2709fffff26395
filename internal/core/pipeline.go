// Plane pipelining: the folded kernels of one V-cycle leg run as a single
// skewed sweep over the planes of the fine grid, each plane of an
// intermediate consumed while it is still in cache (DESIGN.md, "Plane
// pipelining").
//
// The way up computes z = Q·zn, r₂ = r − A·z and z + S·r₂ (or u + (z +
// S·r₂), MGrid's folded tail). Plane k of r₂ needs planes k−1..k+1 of z,
// and plane k−1 of the result needs planes k−2..k of r₂, so a worker that
// owns result planes [lo, hi] walks q = lo−2 … hi+2, producing z plane q,
// then r₂ plane q−1, then result plane q−2. z and r₂ live only in two
// three-plane rings borrowed from the pool; neither is ever written at
// full resolution. The way down, at MGrid's level only, computes r = v −
// A·u (kept: the way up needs it) and projects coarse plane jc of rn = P·r
// as soon as r's planes 2jc−1..2jc+1 exist.
//
// Every plane is produced by the row statements of the three-call
// sequence it replaces (kern's methods, fused.go), so the sweep is
// bit-identical to it — boundary included. A span reads logical planes
// beyond its own, and the sweep's ends source says where they come from.
// On a whole periodic grid a logical plane outside 1..n is the interior
// plane it wraps to, recomputed (two z planes and one r₂ plane per span
// end) rather than exchanged; z's in-plane frame is interpolated from zn's
// halo (InterpolatePlanes' halo mode), and r₂'s is wrapped in the ring
// right after its rows. On a slab — a rank's share of a grid cut along
// axis 0, opened as CorrectPlanes and ResidProjectPlanes — nothing wraps
// along axis 0: the planes beyond the slab are halo planes its caller
// exchanged, and every plane the sweep writes gets its periodic frame,
// the lateral axes being whole. Workers take one contiguous span each —
// every further span would pay the lead-in again — and write disjoint
// planes, so any worker count computes the same bits.
//
// The sweep is a schedule of the four folded kernels, not a fifth: each
// stage resolves its backend through PlanFor (PlaneVariant on a slab) and
// is filed in the ledger under its own (kernel, level) row (observe.go).
package core

import (
	"repro/internal/array"
	"repro/internal/mempool"
	"repro/internal/shape"
	"repro/internal/stencil"
)

// pipeMinPlanes is the shallowest level the sweeps run on: below it the
// recomputed lead-in planes outweigh the passes they save, and the leg
// runs as its three separate calls.
const pipeMinPlanes = 8

// wrapPlane maps a logical plane index q ≥ −1 of a periodic grid with n
// interior planes to the interior plane 1..n that holds its values.
func wrapPlane(q, n int) int { return (q-1+n)%n + 1 }

// WrapFrame refreshes the periodic frame of one plane from its own
// interior — columns, then rows, nas.Comm3's order within a plane (not
// shared with it: Comm3 is inside the F77 reference's timed section).
// mgmpi's overlapped exchange refreshes a slab's lateral halos with it.
func WrapFrame(d []float64, n1, n2 int) {
	for row := n2; row < (n1-1)*n2; row += n2 {
		d[row] = d[row+n2-2]
		d[row+n2-1] = d[row+1]
	}
	copy(d[:n2], d[(n1-2)*n2:])
	copy(d[(n1-1)*n2:], d[n2:2*n2])
}

// sweep is what the spans of one pipelined leg share: the grids and
// stencils, one planeLoop per stage, the ends source, and the watch when
// someone is observing. On a whole grid (slab false) every grid stores
// one halo plane either side, which the border exchange leading the leg
// in refreshes, and farther planes wrap; on a slab u, the result and zn
// store two (logical plane q at index q+1), v, r and rn one (q at q).
type sweep struct {
	pool                 *mempool.Pool
	a, sm, q, p          stencil.Coeffs // A, S, Q and P
	u, v, r, zn, rn, out []float64
	n, cn                int  // fine and coarse lateral extents, halos included
	planes               int  // interior planes of the fine grid
	slab                 bool // the ends source: stored halo planes, not the wrap
	top, mid, end        planeLoop
	sums                 []float64 // r's sums of squares per plane, when the health monitor wants them
	watch                *sweepWatch
}

// newSweep starts a sweep over whole periodic grids of extent n.
func (s *Solver) newSweep(n int, watch *sweepWatch) sweep {
	return sweep{pool: s.Env.Pool, a: s.Operator, sm: s.Smoother, q: s.Interp, p: s.Project,
		n: n, cn: n/2 + 1, planes: n - 2, watch: watch}
}

// at returns the plane of the fine grid holding logical plane q's values.
func (sw *sweep) at(q int) int {
	if sw.slab {
		return q
	}
	return wrapPlane(q, sw.planes)
}

// deep is the index of logical plane 0 in u, the result and zn.
func (sw *sweep) deep() int {
	if sw.slab {
		return 1
	}
	return 0
}

// run executes the sweep over the interior planes of its last stage —
// inline, or one contiguous span per worker.
func (sw *sweep) run() {
	if pl := &sw.end; pl.inline() {
		sw.span(PlaneSpan{Lo: 1, Hi: pl.planes})
	} else {
		par := *sw // the workers' copy: only the parallel path pays for the escape
		pl.fanOut(par.span)
	}
}

// span runs the leg the sweep was set up for — up from zn, or down to rn.
func (sw *sweep) span(p PlaneSpan) {
	if sw.zn != nil {
		sw.up(p)
	} else {
		sw.down(p)
	}
}

// correct is the way up from the coarse correction zn at r's level: the
// result of Coarse2Fine, residSubtract and smoothAdd — z + S·(r − A·z)
// with z = Q·zn — or, given MGrid's u, of smoothAddInto, u + that. u is
// consumed: the pipelined sweep updates it in place (SAC's reuse of an
// argument whose reference count is one).
func (s *Solver) correct(u, zn, r *array.Array) *array.Array {
	e := s.Env
	n := r.Shape()[0]
	if !s.foldable(r) || n-2 < pipeMinPlanes {
		z := s.Coarse2Fine(zn)
		r2 := s.residSubtract(r, z)
		var out *array.Array
		if u == nil {
			out = s.smoothAdd(z, r2)
		} else {
			out = s.smoothAddInto(u, z, r2)
			e.Release(u)
		}
		e.Release(r2)
		e.Release(z)
		return out
	}
	watch := s.lead(zn, wayUp, levelOf(r))
	out := u
	sw := s.newSweep(n, watch)
	sw.zn, sw.r = zn.Data(), r.Data()
	if u == nil {
		out = e.NewArrayDirty(r.Shape())
	} else {
		sw.u = u.Data()
	}
	sw.out = out.Data()
	per := (n - 2) * (n - 2)
	sw.top = planPlanes(e, "interpolate", n, per)
	sw.mid = planPlanes(e, "subRelax", n, per)
	sw.end = planPlanes(e, "addRelax", n, per)
	sw.run()
	healthSample(e, "addRelax", sw.end.level, sw.out)
	watch.fileUp(&sw)
	return out
}

// up runs the way up for result planes p.
func (sw *sweep) up(p PlaneSpan) {
	pool, n, cn, d := sw.pool, sw.n, sw.cn, sw.deep()
	pl, cpl := n*n, cn*cn
	ki := borrowKern(pool, sw.top.variant, false, cn, 0)
	kr := borrowRelax(pool, sw.mid.variant, false, n)
	ka := borrowRelax(pool, sw.end.variant, !sw.slab, n)
	ring := pool.GetDirty(6 * pl)
	zAt := func(q int) []float64 { return planeOf(ring, (q+3)%3, pl) }
	r2At := func(q int) []float64 { return planeOf(ring, 3+(q+3)%3, pl) }
	clk := stageClock{w: sw.watch.clocked(), run: upRun}
	for q := p.Lo - 2; q <= p.Hi+2; q++ {
		clk.plane(q - (p.Lo + 2))
		// Fine plane f lies on coarse plane f/2 or between it and the next,
		// rounded down: on a slab f may be −1.
		f, z := sw.at(q), zAt(q)
		ki.interpolate(z, nil, planeOf(sw.zn, f>>1+d, cpl), planeOf(sw.zn, (f+1)>>1+d, cpl), f&1 == 1, cn, cn, 0, sw.q)
		if !sw.slab && (q == 0 && p.Lo == 1 || q == sw.planes+1 && p.Hi == sw.planes) {
			// The result's end planes hold the boundary value z (u + z)
			// like any frame; logical planes 0 and n−1 of z are its halo.
			setRun(planeOf(sw.out, q, pl), z, planeOf(sw.u, q, pl), 0, pl)
		}
		clk.lap(stInterp)
		if q < p.Lo {
			continue
		}
		r2 := r2At(q - 1)
		kr.subRelax(r2, planeOf(sw.r, sw.at(q-1), pl), zAt(q-2), zAt(q-1), z, n, n, sw.a, false, false)
		clk.lap(stResid)
		WrapFrame(r2, n, n)
		clk.lap(stWrap)
		if q < p.Lo+2 {
			continue
		}
		o := planeOf(sw.out, q-2+d, pl)
		ka.addRelax(o, zAt(q-2), planeOf(sw.u, q-2+d, pl), r2At(q-3), r2At(q-2), r2, n, n, sw.sm)
		if sw.slab {
			WrapFrame(o, n, n)
		}
		clk.lap(stSmooth)
	}
	clk.stop()
	pool.Put(ring)
	ki.release(pool)
	kr.release(pool)
	ka.release(pool)
}

// residProject is MGrid's way down at its own level: r = v − A·u and
// rn = P·r, the results of residSubtract and Fine2Coarse (r's periodic
// border prepared, as Fine2Coarse leaves it).
func (s *Solver) residProject(v, u *array.Array) (r, rn *array.Array) {
	e := s.Env
	n := v.Shape()[0]
	if n-2 < pipeMinPlanes {
		r = s.residSubtract(v, u)
		return r, s.Fine2Coarse(r)
	}
	watch := s.lead(u, wayDown, levelOf(v))
	sw := s.newSweep(n, watch)
	cn := sw.cn
	r, rn = e.NewArrayDirty(v.Shape()), e.NewArrayDirty(shape.Of(cn, cn, cn))
	sw.u, sw.v, sw.r, sw.rn = u.Data(), v.Data(), r.Data(), rn.Data()
	if e.Health.WantsResid() {
		sw.sums = e.Pool.GetDirty(n)
	}
	sw.mid = planPlanes(e, "subRelax", n, (n-2)*(n-2))
	sw.end = planPlanes(e, "projectCondense", cn, (cn-2)*(cn-2))
	endPlanes(sw.rn, nil, nil, cn, cn*cn)
	sw.run()
	pl := n * n
	copy(planeOf(sw.r, 0, pl), planeOf(sw.r, n-2, pl))
	copy(planeOf(sw.r, n-1, pl), planeOf(sw.r, 1, pl))
	if sw.sums != nil {
		sumSq, _ := foldNorms(sw.sums, nil, n)
		s.observeResidual(r, sumSq)
		e.Pool.Put(sw.sums)
	}
	healthSample(e, "subRelax", sw.mid.level, sw.r)
	healthSample(e, "projectCondense", sw.end.level, sw.rn)
	watch.fileDown(&sw)
	return r, rn
}

// down runs the way down for coarse planes p: fine planes 2·Lo−1 … 2·Hi
// are this span's to write; the one above them, which the last coarse
// plane reaches, is recomputed into a spare plane — unless it is a slab's
// halo plane, which the span writes, as the first span does plane 0.
func (sw *sweep) down(p PlaneSpan) {
	pool, n, cn, d := sw.pool, sw.n, sw.cn, sw.deep()
	pl, cpl := n*n, cn*cn
	kr := borrowRelax(pool, sw.mid.variant, false, n)
	kp := borrowKern(pool, sw.end.variant, !sw.slab, n, n)
	spare := pool.GetDirty(pl)
	clk := stageClock{w: sw.watch.clocked(), run: downRun}
	first := 2*p.Lo - 1
	if sw.slab && p.Lo == 1 {
		first = 0
	}
	for f := first; f <= 2*p.Hi+1; f++ {
		clk.plane(f - 2*p.Lo)
		src, dst, norm := sw.at(f), spare, false
		if f <= 2*p.Hi || sw.slab && f == sw.planes+1 {
			dst, norm = planeOf(sw.r, f, pl), sw.sums != nil
		}
		sum, _ := kr.subRelax(dst, planeOf(sw.v, src, pl), planeOf(sw.u, src-1+d, pl), planeOf(sw.u, src+d, pl),
			planeOf(sw.u, src+1+d, pl), n, n, sw.a, norm, false)
		if norm {
			sw.sums[f] = sum
		}
		clk.lap(stResid)
		WrapFrame(dst, n, n)
		clk.lap(stWrap)
		if f&1 == 1 && f > 2*p.Lo {
			o := planeOf(sw.rn, f/2, cpl)
			kp.project(o, planeOf(sw.r, f-2, pl), planeOf(sw.r, f-1, pl), dst, n, n, sw.p)
			if sw.slab {
				WrapFrame(o, cn, cn)
			}
			clk.lap(stProject)
		}
	}
	clk.stop()
	pool.Put(spare)
	kr.release(pool)
	kp.release(pool)
}

// CorrectPlanes is the way up on a slab (planes.go): result planes p of
// od = z + S·(r − A·z) with z = Q·zd — or, given ud, of u + that, od
// aliasing ud — reading zd's planes from ⌊(p.Lo−2)/2⌋ to ⌊(p.Hi+3)/2⌋ and
// r's from p.Lo−1 to p.Hi+1. The slab's planes are n×n, halos included,
// and it has `planes` interior ones; od, ud and zd store two halo planes
// either side (plane q at index q+1), rd one (plane q at q). Every result
// plane gets its periodic frame; p.Frame is ignored.
func CorrectPlanes(pool *mempool.Pool, od, ud, zd, rd []float64, n, planes int, p PlaneSpan, a, sm, q stencil.Coeffs) {
	sw := sweep{pool: pool, a: a, sm: sm, q: q, u: ud, zn: zd, r: rd, out: od, n: n, cn: n/2 + 1, planes: planes, slab: true}
	variant := PlaneVariant(n - 2)
	sw.top.variant, sw.mid.variant, sw.end.variant = variant, variant, variant
	sw.up(p)
}

// ResidProjectPlanes is the way down on a slab (planes.go): rd = vd − A·ud
// and coarse planes p of rnd = P·r, in the layout of CorrectPlanes — ud
// stores two halo planes either side, vd, rd and rnd one. It writes r's
// fine planes 2·p.Lo−1 … 2·p.Hi, plus plane 0 when p starts the slab and
// plane planes+1 when it ends it: the halo planes of r the way up reads,
// computed here from u's halo planes -1 and planes+2 and v's halo planes
// rather than exchanged.
func ResidProjectPlanes(pool *mempool.Pool, rd, rnd, vd, ud []float64, n, planes int, p PlaneSpan, a, proj stencil.Coeffs) {
	sw := sweep{pool: pool, a: a, p: proj, u: ud, v: vd, r: rd, rn: rnd, n: n, cn: n/2 + 1, planes: planes, slab: true}
	sw.mid.variant, sw.end.variant = PlaneVariant(n-2), PlaneVariant(sw.cn-2)
	sw.down(p)
}
