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
// halo (interpolate's halo rows, m = 0), and r₂'s is wrapped in the ring
// right after its rows. On a slab — a rank's share of a grid cut along
// axis 0, opened as CorrectPlanes and ResidProjectPlanes — nothing wraps
// along axis 0: the planes beyond the slab are halo planes its caller
// exchanged, and every plane the sweep writes gets its periodic frame,
// the lateral axes being whole. Workers take one contiguous span each —
// every further span would pay the lead-in again — and write disjoint
// planes, so any worker count computes the same bits.
//
// The way up's rings stay inside L2 by walking each span once per band of
// result rows (bandRows: one band up to rows of 130, four at 258),
// each ring plane holding only the rows its band reaches. Band ends are
// recomputed like span ends: an interior end recomputes the two z rows and
// the r₂ row it shares with its neighbour, and the first and last bands
// compute r₂'s rows 0 and N+1 by the statements of rows N and 1, which one
// band copies (WrapFrame) instead. The result's frame and end planes get
// the same boundary values either way.
//
// The sweep is a schedule of the four folded kernels, not a fifth: each
// stage resolves its backend through PlanFor (PlaneVariant on a slab) and
// is filed in the ledger under its own (kernel, level) row (observe.go).
package core

import (
	"cmp"

	"repro/internal/array"
	"repro/internal/mempool"
	"repro/internal/shape"
	"repro/internal/stencil"
)

// pipeMinPlanes is the shallowest level the sweeps run on: below it the
// recomputed lead-in planes outweigh the passes they save, and the leg
// runs as its three separate calls.
const pipeMinPlanes = 8

// upBudget bounds the bytes of the way up's rings. A worker's two
// three-plane rings of whole planes take 6·n² elements: 209 KB at rows of
// 66 and 811 KB at 130, which sit in a 2 MB L2 beside the streams, but
// 3.2 MB at rows of 258, where every ring re-read came from the last-level
// cache. Above the budget the way up runs in bands of rows (bandRows). At
// rows of 258 bands of 64 rows (867 KB) ran the leg at 4.9–5.4 ns per
// point, bands of 32 at 5.8 and one band at 6.0; at rows of 130 one band
// ran at 5.2 and two at 5.4 (BenchmarkUpLegBands, medians on a 2-vCPU
// Sapphire Rapids VM with a 2 MB L2 per core).
const upBudget = 1 << 20

// bandRows is the rule for the way up's band height at rows of n points,
// halos included: all n−2 interior rows, one band, up to rows of 130, and
// above that the fewest bands whose rings fit upBudget, of one even height
// but for a first band one row taller and a shorter last one (nextBand). A
// band's ring plane holds its rows and six more (band).
func bandRows(n int) int {
	rows := n - 2
	fit := max(upBudget/(6*8*n)-6, 1) // the most rows a band may hold
	if rows <= fit {
		return rows
	}
	most := max((fit-1)&^1, 2) // the tallest even height whose first band fits
	bands := (rows - 1 + most - 1) / most
	return ((rows-1+bands-1)/bands + 1) &^ 1
}

// wrapPlane maps a logical plane index q ≥ −1 of a periodic grid with n
// interior planes to the interior plane 1..n that holds its values.
func wrapPlane(q, n int) int { return (q-1+n)%n + 1 }

// WrapFrame refreshes the periodic frame of one n × n plane from its own
// interior — columns, then rows, nas.Comm3's order within a plane (not
// shared with it: Comm3 is inside the F77 reference's timed section).
// mgmpi's overlapped exchange refreshes a slab's lateral halos with it.
func WrapFrame(d []float64, n int) {
	wrapColumns(d, n, n)
	copy(d[:n], d[(n-2)*n:])
	copy(d[(n-1)*n:], d[n:2*n])
}

// wrapColumns is WrapFrame's columns on rows 1 … n1−2 of n1 rows of n2.
func wrapColumns(d []float64, n1, n2 int) {
	for row := n2; row < (n1-1)*n2; row += n2 {
		d[row] = d[row+n2-2]
		d[row+n2-1] = d[row+1]
	}
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
	band                 int       // result rows per band of the way up (bandRows)
	sums                 []float64 // r's sums of squares per plane, when the health monitor wants them
	watch                *sweepWatch
}

// newSweep starts a sweep over whole periodic grids of extent n.
func (s *Solver) newSweep(n int, watch *sweepWatch) sweep {
	return sweep{pool: s.Env.Pool, a: s.Operator, sm: s.Smoother, q: s.Interp, p: s.Project,
		n: n, cn: n/2 + 1, planes: n - 2, band: cmp.Or(s.band, bandRows(n)), watch: watch}
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
	sw.top = planPlanes(e, "interpolate", n)
	sw.mid = planPlanes(e, "subRelax", n)
	sw.end = planPlanes(e, "addRelax", n)
	sw.run()
	healthSample(e, "addRelax", sw.end.level, sw.out)
	watch.fileUp(&sw)
	return out
}

// up runs the way up for result planes p, in bands of sw.band result rows:
// each band walks the span's planes on its own, its rings holding only the
// rows it reaches.
func (sw *sweep) up(p PlaneSpan) {
	pool := sw.pool
	bd := sw.nextBand(0) // the tallest band, first
	ki := borrowKern(pool, sw.top.variant, false, sw.cn, 0)
	kr := borrowRelax(pool, sw.mid.variant, false, sw.n)
	// On one band the result's frame is its kernel's, as in the three-call
	// sequence; on several each band writes its share of it.
	ka := borrowRelax(pool, sw.end.variant, !sw.slab && bd.one, sw.n)
	ring := pool.GetDirty(6 * bd.planeRows * sw.n)
	clk := stageClock{w: sw.watch.clocked(), run: upRun}
	for {
		sw.upBand(p, &bd, ring, &ki, &kr, &ka, &clk)
		if bd.b == sw.n-2 {
			break
		}
		bd = sw.nextBand(bd.b)
	}
	clk.stop()
	pool.Put(ring)
	ki.release(pool)
	kr.release(pool)
	ka.release(pool)
}

// band is the share of the way up that one walk over a span's planes
// computes: result rows a … b of each plane, from r₂'s rows ra … rb, from
// z's rows ra−1 … rb+1. Rows outside 1 … N (N the interior rows) are
// logical, like planes: row 0 is row N, row N+1 row 1. On one band r₂'s
// rows are 1 … N and WrapFrame copies its rows 0 and N+1, as in the
// three-call sequence; on several each band computes all the r₂ rows its
// result rows read, recomputing the one it shares with a neighbour (and the
// first and last bands rows 0 and N+1, by their statements) and the two z
// rows under it. A ring plane holds planeRows rows: on one band a whole
// plane, on several the band's z rows and a spare row either side for the
// interpolation's even-row alignment. What a band does on every plane is
// worked out once, as row ranges (rowCall).
type band struct {
	a, b, planeRows int
	one             bool
	interp, resid   [3]rowCall // z's and r₂'s kernel calls, one per run of wrapRuns
	ni, nr          int        // how many of them there are
	wrap            rowCall    // r₂'s rows ra−1 … rb+1, whose columns wrap
	smooth          rowCall    // result rows a−1 … b+1 of the smoothing call
	ends            rowCall    // the result rows of the band that take a boundary value
}

// rowCall is one plane kernel call of a band: rows [ring[0], ring[1]) of a
// ring plane and [src[0], src[1]) of a grid's plane, as element offsets,
// rows rows in both.
type rowCall struct {
	ring, src [2]int
	rows      int
}

func (c *rowCall) inRing(plane []float64) []float64 { return plane[c.ring[0]:c.ring[1]] }

// inSrc is the call's rows of a grid plane; an absent (nil) grid stays
// absent.
func (c *rowCall) inSrc(plane []float64) []float64 {
	if plane == nil {
		return nil
	}
	return plane[c.src[0]:c.src[1]]
}

// nextBand lays out the band after result row b, the first band at b = 0.
// Bands are sw.band rows high but for a shorter last one and, at an even
// height, a first band one row taller, so that every later band starts on
// an even row: z's rows are interpolated in pairs from an even row, and a
// band that starts on an odd row interpolates two rows more.
func (sw *sweep) nextBand(b int) band {
	rows := sw.n - 2
	height := min(sw.band, rows)
	if b == 0 {
		return sw.newBand(1, min(height|1, rows))
	}
	return sw.newBand(b+1, min(b+height, rows))
}

// newBand lays out the band of result rows a … b.
func (sw *sweep) newBand(a, b int) band {
	n, cn, rows := sw.n, sw.cn, sw.n-2
	bd, first, ra, rb := band{a: a, b: b, planeRows: b - a + 7}, a-3, a-1, b+1
	if a == 1 && b == rows {
		bd, first, ra, rb = band{a: a, b: b, planeRows: rows + 2, one: true}, 0, 1, rows
	}
	// call covers logical rows lo … hi of the rings, and rows src … of the
	// grid plane it reads or writes.
	call := func(lo, hi, src int) rowCall {
		return rowCall{[2]int{(lo - first) * n, (hi - first + 1) * n}, [2]int{src * n, (src + hi - lo + 1) * n}, hi - lo + 1}
	}
	// z's rows in 0 … N+1 come from zn's halo, as interpolate's halo rows
	// compute them, and row −1 is row N−1 and row N+2 row 2. A call
	// starts on an even fine row and covers an even number — a row pair
	// shares its coarse rows — so it may write a spare row.
	for _, w := range wrapRuns(ra-1, rb+1, 0, rows+1, rows) {
		if w.lo <= w.hi {
			lo, hi := (w.lo+w.shift)&^1, (w.hi+w.shift)|1
			c := call(lo-w.shift, hi-w.shift, 0)
			c.src = [2]int{lo / 2 * cn, (hi/2 + 2) * cn} // the coarse rows lo … hi lie on or between
			c.rows = hi/2 - lo/2 + 2
			bd.interp[bd.ni], bd.ni = c, bd.ni+1
		}
	}
	// r₂'s row 0 is row N's statement and row N+1 row 1's.
	for _, w := range wrapRuns(ra, rb, 1, rows, rows) {
		if w.lo <= w.hi {
			bd.resid[bd.nr], bd.nr = call(w.lo-1, w.hi+1, w.lo-1+w.shift), bd.nr+1
		}
	}
	bd.wrap = call(ra-1, rb+1, 0)
	bd.smooth = call(a-1, b+1, a-1)
	lo, hi := a, b
	if a == 1 {
		lo = 0
	}
	if b == rows {
		hi = rows + 1
	}
	bd.ends = call(lo, hi, lo)
	return bd
}

// upBand walks the planes of span p for band bd.
func (sw *sweep) upBand(p PlaneSpan, bd *band, ring []float64, ki, kr, ka *kern, clk *stageClock) {
	n, cn, d, rows := sw.n, sw.cn, sw.deep(), sw.n-2
	pl, cpl, rpl := n*n, cn*cn, bd.planeRows*n
	zAt := func(q int) []float64 { return planeOf(ring, (q+3)%3, rpl) }
	r2At := func(q int) []float64 { return planeOf(ring, 3+(q+3)%3, rpl) }
	sm := &bd.smooth
	for q := p.Lo - 2; q <= p.Hi+2; q++ {
		clk.plane(q - (p.Lo + 2))
		// Fine plane f lies on coarse plane f/2 or between it and the next,
		// rounded down: on a slab f may be −1.
		f, z := sw.at(q), zAt(q)
		zl, zh := planeOf(sw.zn, f>>1+d, cpl), planeOf(sw.zn, (f+1)>>1+d, cpl)
		for i := range bd.ni {
			c := &bd.interp[i]
			ki.interpolate(c.inRing(z), c.inSrc(zl), c.inSrc(zh), f&1 == 1, c.rows, cn, 0, sw.q)
		}
		if !sw.slab && (q == 0 && p.Lo == 1 || q == sw.planes+1 && p.Hi == sw.planes) {
			// The result's end planes hold the boundary value z (u + z)
			// like any frame; logical planes 0 and n−1 of z are its halo.
			c := &bd.ends
			o := c.inSrc(planeOf(sw.out, q, pl))
			setRun(o, c.inRing(z), c.inSrc(planeOf(sw.u, q, pl)), 0, len(o))
		}
		clk.lap(stInterp)
		if q < p.Lo {
			continue
		}
		r2, r, zm, zz := r2At(q-1), planeOf(sw.r, sw.at(q-1), pl), zAt(q-2), zAt(q-1)
		for i := range bd.nr {
			c := &bd.resid[i]
			kr.subRelax(c.inRing(r2), c.inSrc(r), c.inRing(zm), c.inRing(zz), c.inRing(z), c.rows, n, sw.a, false, false)
		}
		clk.lap(stResid)
		if bd.one {
			WrapFrame(bd.wrap.inRing(r2), n)
		} else {
			wrapColumns(bd.wrap.inRing(r2), bd.wrap.rows, n)
		}
		clk.lap(stWrap)
		if q < p.Lo+2 {
			continue
		}
		o, u := planeOf(sw.out, q-2+d, pl), planeOf(sw.u, q-2+d, pl)
		ob, zb, ub := sm.inSrc(o), sm.inRing(zAt(q-2)), sm.inSrc(u)
		ka.addRelax(ob, zb, ub, sm.inRing(r2At(q-3)), sm.inRing(r2At(q-2)), sm.inRing(r2), sm.rows, n, sw.sm)
		switch {
		case sw.slab && bd.one:
			WrapFrame(o, n)
		case sw.slab:
			wrapColumns(ob, sm.rows, n)
			if bd.b == rows {
				copy(planeOf(o, 0, n), planeOf(o, rows, n))
				copy(planeOf(o, rows+1, n), planeOf(o, 1, n))
			}
		case !bd.one:
			last := (sm.rows - 1) * n
			if bd.a == 1 {
				setRun(ob, zb, ub, 0, n)
			}
			frameColumns(ob, zb, ub, sm.rows, n)
			if bd.b == rows {
				setRun(ob, zb, ub, last, last+n)
			}
		}
		clk.lap(stSmooth)
	}
}

// rowRun is logical rows lo … hi (empty when hi < lo) and the shift that
// maps them onto the rows of a plane holding their values.
type rowRun struct{ lo, hi, shift int }

// wrapRuns splits logical rows lo … hi of a plane of rows interior rows into
// the runs below, on and above rows from … to, which hold their own values;
// the rows beyond wrap by rows.
func wrapRuns(lo, hi, from, to, rows int) [3]rowRun {
	return [3]rowRun{{lo, min(hi, from-1), rows}, {max(lo, from), min(hi, to), 0}, {max(lo, to+1), hi, -rows}}
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
	sw.mid = planPlanes(e, "subRelax", n)
	sw.end = planPlanes(e, "projectCondense", cn)
	endPlanes(sw.rn, nil, nil, cn)
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
		WrapFrame(dst, n)
		clk.lap(stWrap)
		if f&1 == 1 && f > 2*p.Lo {
			o := planeOf(sw.rn, f/2, cpl)
			kp.project(o, planeOf(sw.r, f-2, pl), planeOf(sw.r, f-1, pl), dst, n, sw.p)
			if sw.slab {
				WrapFrame(o, cn)
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
	sw := sweep{pool: pool, a: a, sm: sm, q: q, u: ud, zn: zd, r: rd, out: od, n: n, cn: n/2 + 1, planes: planes,
		band: bandRows(n), slab: true}
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
