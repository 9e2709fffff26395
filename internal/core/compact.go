// The plane kernels' compact periodic mode: grids with no halo at all
// (internal/periodic, the paper's §7 future work).
//
// A compact grid g of extent n is the interior of an extended grid G,
// g[i] = G[i+1], whose halo is implicit. A sweep hands every worker one
// contiguous span of output planes and a ring of three extended planes.
// Each plane of G the stencil reaches is built in the ring from g — the
// compact plane wrapPlane picks, with its frame from WrapFrame, the halo
// by index wrap of the pipelined legs — and kern's methods compute the
// output plane in extended form, whose interior rows are then copied out.
// Every value is the one the extended kernel computes from G, so a compact
// solve is bit-identical to the extended one for every backend and worker
// count.
package core

import (
	"repro/internal/array"
	"repro/internal/stencil"
	wl "repro/internal/withloop"
)

// CompactSweep computes out from the cubic compact periodic grid x with
// the plane kernel named kernel:
//
//	"subRelax"         out = aux − Relax(x, c)
//	"addRelax"         out = aux + Relax(x, c), or Relax(x, c) with aux nil
//	"projectCondense"  out = Relax(x, c) at the coarse anchors: extent n/2
//	"interpolate"      out = x interpolated with weights c: extent 2n
//
// x has extent n. The coarse anchors are the odd compact positions: coarse
// point j lies under fine point 2j+1, as extended coarse point j+1 lies
// under extended fine point 2j+2.
func CompactSweep(e *wl.Env, kernel string, out, aux, x *array.Array, c stencil.Coeffs) {
	on := out.Shape()[0]
	cs := compactSweep{e: e, kernel: kernel, out: out.Data(), x: x.Data(), n: x.Shape()[0], on: on, c: c}
	if aux != nil {
		cs.aux = aux.Data()
	}
	pl := planPlanes(e, kernel, on+2)
	cs.variant = pl.variant
	if pl.inline() {
		cs.span(pl.interior())
	} else {
		par := cs // the workers' copy: only the parallel path pays for the escape
		pl.fanOut(par.span)
	}
}

// compactSweep is what the spans of one CompactSweep share.
type compactSweep struct {
	e           *wl.Env
	kernel      string
	out, aux, x []float64
	n, on       int // compact extents of x and out
	c           stencil.Coeffs
	variant     string
}

// span computes the output planes of p, numbered as extended planes.
func (cs *compactSweep) span(p PlaneSpan) {
	pool, n, on := cs.e.Pool, cs.n, cs.on
	xe, pl, opl := n+2, (n+2)*(n+2), on*on
	var k kern
	switch cs.kernel {
	case "subRelax", "addRelax":
		k = borrowRelax(pool, cs.variant, false, xe)
	case "interpolate": // no second row buffer
		k = borrowKern(pool, cs.variant, false, xe, 0)
	default:
		k = borrowKern(pool, cs.variant, false, xe, xe)
	}
	buf := pool.GetDirty(3*pl + (on+2)*(on+2))
	o := buf[3*pl:] // the extended output plane
	held := [3]int{-1, -1, -1}
	// at is extended plane q ≥ 0 of x, built in ring slot q mod 3 unless
	// the slot holds it already.
	at := func(q int) []float64 {
		d := planeOf(buf, q%3, pl)
		if held[q%3] != q {
			toExtended(d, planeOf(cs.x, wrapPlane(q, n)-1, n*n), n)
			WrapFrame(d, xe)
			held[q%3] = q
		}
		return d
	}
	for i := p.Lo; i <= p.Hi; i++ {
		switch cs.kernel {
		case "subRelax":
			toExtended(o, planeOf(cs.aux, i-1, opl), on)
			k.subRelax(o, o, at(i-1), at(i), at(i+1), xe, xe, cs.c, false, false)
		case "addRelax":
			if cs.aux == nil {
				clear(o)
			} else {
				toExtended(o, planeOf(cs.aux, i-1, opl), on)
			}
			k.addRelax(o, o, nil, at(i-1), at(i), at(i+1), xe, xe, cs.c)
		case "projectCondense":
			k.project(o, at(2*i-1), at(2*i), at(2*i+1), xe, cs.c)
		default:
			k.interpolate(o, at(i/2), at((i+1)/2), i&1 == 1, xe, xe, 1, cs.c)
		}
		fromExtended(planeOf(cs.out, i-1, opl), o, on)
	}
	pool.Put(buf)
	k.release(pool)
}

// toExtended copies the n×n compact plane c into the interior of the
// extended plane d (row stride n+2); fromExtended copies it back out.
func toExtended(d, c []float64, n int) {
	for j := 0; j < n; j++ {
		copy(d[(j+1)*(n+2)+1:], c[j*n:(j+1)*n])
	}
}

func fromExtended(c, d []float64, n int) {
	for j := 0; j < n; j++ {
		copy(c[j*n:(j+1)*n], d[(j+1)*(n+2)+1:])
	}
}
