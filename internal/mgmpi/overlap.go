// Overlapped halo exchange: the interior/boundary plane split that hides
// comm3 behind compute (ROADMAP item 1, DESIGN.md §4.7), plus the pool
// fan-out that makes each rank a hybrid MPI×SMP worker.
//
// The synchronous path computes every plane, then exchanges faces. The
// overlap path reorders whole planes: boundary planes (the ones the
// exchange ships) compute first and go on the wire as nonblocking
// Isend/Irecv; the interior planes compute while the network drains; the
// Waits come last. Bit-identity holds because a plane's statements are
// identical under every schedule — only the order *between* planes moves,
// and no two planes overlap in their writes. The same argument covers the
// thread fan-out (disjoint plane ranges per worker) and the per-plane
// lateral halo copies (plane i3's copies touch only plane i3).
package mgmpi

import (
	"math/bits"

	"repro/internal/array"
	"repro/internal/core"
)

// forPlanes runs f over the planes of p, fanned over the rank's pool when
// one is attached (sub-spans are disjoint, workers share nothing but the
// grid) and inline otherwise.
func (st *rankState) forPlanes(p core.PlaneSpan, f func(core.PlaneSpan)) {
	n := p.Count()
	if n == 0 {
		return
	}
	if st.pool == nil || n == 1 {
		f(p)
		return
	}
	st.pool.For(n, 0, func(a, b, _ int) { f(core.PlaneSpan{Lo: p.Lo + a, Hi: p.Lo + b - 1}) })
}

// fusedComm3 runs a kernel's plane loop and the halo refresh of its
// output box a as one fused operation: the synchronous path computes all
// planes (pool fan-out) then calls comm3; the overlap path interleaves
// them. compute must fill the planes of a it is handed and be safe for
// disjoint concurrent spans.
func (st *rankState) fusedComm3(a *array.Array, compute func(core.PlaneSpan)) {
	if st.overlapActive() {
		st.overlapComm3(a, compute)
		return
	}
	st.forPlanes(core.PlaneSpan{Lo: 1, Hi: a.Shape()[0] - 2}, compute)
	st.comm3(a)
}

// overlapActive reports whether the nonblocking split applies: overlap
// selected, a genuinely distributed axis-0 exchange (slab decomposition,
// more than one rank), and not on the whole-grid levels every rank solves.
func (st *rankState) overlapActive() bool {
	return st.overlap && !st.serialComm && st.procs[0] > 1
}

// plane3 returns the inclusive box of plane i3 at its full lateral
// extents — the payload of the axis-0 face exchange.
func plane3(i3, n1, n2 int) (lo, hi [3]int) {
	return [3]int{i3, 0, 0}, [3]int{i3, n1 - 1, n2 - 1}
}

// overlapComm3 is the fused compute + nonblocking exchange for a slab
// decomposition. Schedule:
//
//	compute boundary planes → refresh their lateral halos →
//	post Irecv (both halo planes) and Isend (both faces) →
//	compute + refresh the interior planes while the wire drains →
//	wait for the receives, unpack the halo planes, wait for the sends.
//
// The messages (peers, tags, payloads) are those of the synchronous
// comm3's axis-0 step; the lateral axes, undistributed in a slab, are
// refreshed plane by plane with core.WrapFrame — each plane's slice of
// the synchronous comm3's axis-2, then axis-1 local copies. Blocked time
// lands in the requests' Waits, so the transport stats now show only the
// *exposed* part of the exchange — the quantity the overlap report gates
// on.
func (st *rankState) overlapComm3(a *array.Array, compute func(core.PlaneSpan)) {
	shp := a.Shape()
	n1, n2 := shp[1], shp[2]
	d := a.Data()
	lp := shp[0] - 2
	if st.obs != nil {
		st.setCommLevel(bits.Len(uint(lp*st.procs[0])) - 1)
	}
	boundary, interior := core.SplitPlanes(shp[0])
	pl := n1 * n2
	for _, i3 := range boundary {
		compute(core.PlaneSpan{Lo: i3, Hi: i3})
		core.WrapFrame(d[i3*pl:(i3+1)*pl], n1, n2)
	}
	up := st.neighbour(0, +1)
	down := st.neighbour(0, -1)
	tagHi := tagHaloBase     // my top face → up's low halo
	tagLo := tagHaloBase + 1 // my bottom face → down's high halo
	recvDown := st.c.Irecv(down, tagHi)
	recvUp := st.c.Irecv(up, tagLo)
	sLo, sHi := plane3(lp, n1, n2)
	sendUp := st.c.Isend(up, tagHi, st.pack(d, n1, n2, sLo, sHi))
	sLo, sHi = plane3(1, n1, n2)
	sendDown := st.c.Isend(down, tagLo, st.pack(d, n1, n2, sLo, sHi))
	st.forPlanes(interior, func(p core.PlaneSpan) {
		compute(p)
		for i3 := p.Lo; i3 <= p.Hi; i3++ {
			core.WrapFrame(d[i3*pl:(i3+1)*pl], n1, n2)
		}
	})
	rLo, rHi := plane3(0, n1, n2)
	st.unpack(d, n1, n2, rLo, rHi, recvDown.Wait())
	rLo, rHi = plane3(lp+1, n1, n2)
	st.unpack(d, n1, n2, rLo, rHi, recvUp.Wait())
	sendUp.Wait()
	sendDown.Wait()
}
