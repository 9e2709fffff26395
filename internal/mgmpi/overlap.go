// The slab halo exchange and its two schedules (ROADMAP item 1, DESIGN.md
// §4.7), plus the pool fan-out that makes each rank a hybrid MPI×SMP
// worker.
//
// A slab's halo is exchanged only between two of core's
// legs, at the depth the next leg reads: haloed runs the computation that
// produces a slab and then refreshes its halo planes. The synchronous
// schedule computes every plane, then exchanges. The overlapped one is a
// span order: the spans holding the planes that go out compute first, both
// faces go on the wire, the interior span computes while the network
// drains, and the receives come last. Both transports buffer inbound
// messages eagerly (a mailbox, a per-peer inbox), so a Recv after the
// interior sweep sees the bytes that arrived during it, and plain
// Send/Recv are all the schedule needs.
//
// Bit-identity holds because a plane's statements are identical under
// every schedule — only the order *between* spans moves, a leg recomputes
// its lead-in planes wherever a span starts, and no two spans overlap in
// their writes. The same argument covers the thread fan-out (disjoint
// plane ranges per worker).
package mgmpi

import (
	"fmt"

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

// halo is the depth of a slab's halo: below planes under
// plane 1, above planes over the last interior plane.
type halo struct{ below, above int }

// haloed computes the interior planes 1..lp of a slab a at a
// distributed level with compute, which must also write each plane's
// periodic frame, and refreshes a's halo planes h: synchronously, or in
// the overlapped span order — the faces core.SplitPlanes finds (the bottom
// h.above planes, which go down, and the top h.below, which go up; one
// span when they meet), both sends, the interior span, both receives.
func (st *rankState) haloed(a *array.Array, level int, h halo, compute func(core.PlaneSpan)) {
	lp := st.local(level)
	all := core.PlaneSpan{Lo: 1, Hi: lp}
	if !st.overlap || st.c.Size() == 1 {
		st.forPlanes(all, compute)
		st.sendFaces(a, level, h)
		st.recvFaces(a, level, h)
		return
	}
	faces, interior := core.SplitPlanes(lp, h.above, h.below)
	for _, p := range faces {
		if p.Count() > 0 {
			compute(p)
		}
	}
	st.sendFaces(a, level, h)
	st.forPlanes(interior, compute)
	st.recvFaces(a, level, h)
}

// framed is compute followed by the periodic frame of every plane it
// wrote, for a kernel that writes interior rows only.
func (st *rankState) framed(a *array.Array, compute func(core.PlaneSpan)) func(core.PlaneSpan) {
	n, d := a.Shape()[2], a.Data()
	return func(p core.PlaneSpan) {
		compute(p)
		for i := p.Lo; i <= p.Hi; i++ {
			core.WrapFrame(d[i*n*n:(i+1)*n*n], n)
		}
	}
}

// slabPlanes returns a slab's storage and the index range of logical
// planes lo … hi in it: u's slabs store plane q at index q+1, the others at
// q.
func (st *rankState) slabPlanes(a *array.Array, level, lo, hi int) []float64 {
	shp := a.Shape()
	pl, off := shp[1]*shp[2], (shp[0]-2-st.local(level))/2
	return a.Data()[(lo+off)*pl : (hi+1+off)*pl]
}

// sendFaces is the first half of a slab's halo exchange: the top
// h.below interior planes go up, to become the upper neighbour's planes
// 1−h.below … 0, and the bottom h.above go down, to become the lower
// neighbour's planes above its last. One rank copies its own planes
// instead.
func (st *rankState) sendFaces(a *array.Array, level int, h halo) {
	lp := st.local(level)
	top, bottom := st.slabPlanes(a, level, lp+1-h.below, lp), st.slabPlanes(a, level, 1, h.above)
	if st.c.Size() == 1 {
		copy(st.slabPlanes(a, level, 1-h.below, 0), top)
		copy(st.slabPlanes(a, level, lp+1, lp+h.above), bottom)
		return
	}
	st.setCommLevel(level)
	st.c.Send(st.neighbour(+1), tagHaloBase, top)
	st.c.Send(st.neighbour(-1), tagHaloBase+1, bottom)
}

// recvFaces is the second half: the halo planes from below, then from
// above.
func (st *rankState) recvFaces(a *array.Array, level int, h halo) {
	if st.c.Size() == 1 {
		return
	}
	lp := st.local(level)
	st.setCommLevel(level)
	st.unpackPlanes(st.slabPlanes(a, level, 1-h.below, 0), st.c.Recv(st.neighbour(-1), tagHaloBase))
	st.unpackPlanes(st.slabPlanes(a, level, lp+1, lp+h.above), st.c.Recv(st.neighbour(+1), tagHaloBase+1))
}

// unpackPlanes copies a received run of halo planes into place and gives
// the payload back to the transport.
func (st *rankState) unpackPlanes(dst, payload []float64) {
	if len(payload) != len(dst) {
		panic(fmt.Sprintf("mgmpi: rank %d: halo payload of %d values, want %d", st.c.Rank(), len(payload), len(dst)))
	}
	copy(dst, payload)
	st.c.Release(payload)
}
