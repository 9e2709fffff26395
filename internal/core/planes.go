// The kernel layer's public face: plane-range entry points of the four
// fused kernels, and the interior/boundary plane split a distributed
// caller schedules them with.
//
// SubRelaxPlanes, AddRelaxPlanes, ProjectCondensePlanes and
// InterpolatePlanes (fused.go) are the plane loops core's own subRelax,
// addRelax, projectCondense and interpolate run — the same functions, not
// wrappers — opened to callers that own the grid: internal/mgmpi's ranks
// run them on their sub-boxes. The contract:
//
//   - A grid is a flat row-major box with one halo cell on every side and
//     lateral extents (n1, n2), halos included; any number of planes. The
//     lateral extents may differ (a 3-D processor grid's boxes do).
//   - A call computes the planes of its PlaneSpan only, reads the planes
//     either side of them, and never writes outside the span; calls on
//     disjoint spans may run concurrently. Halos are the caller's to
//     refresh — unless the span says Frame, for grids whose boundary is
//     the kernel's own boundary value rather than an exchanged halo.
//   - Each plane's statements are those of the full sweep, so any split or
//     order of spans yields bit-identical values, and so does every
//     variant: the backend ("scalar", "buffered", "simd" — fused.go's
//     "Kernel variants") only changes speed. PlaneVariant is the rule for
//     callers that have no wl.Env to plan with.
//   - Line buffers come from the pool argument (nil allocates).
//
// A distributed kernel that wants to hide its halo exchange computes the
// planes adjacent to the exchanged faces first, puts them on the wire, and
// fills the interior while the network drains — the split Bianco &
// Varetto's generic stencil library builds its distributed performance on;
// SplitPlanes is that split.
package core

import wl "repro/internal/withloop"

// PlaneSpan is an inclusive range [Lo, Hi] of grid planes along the
// decomposed axis. An empty span has Hi < Lo.
type PlaneSpan struct {
	Lo, Hi int
	// Frame extends what a kernel call writes from the interior rows of
	// its planes to the whole planes: the frame — rows and columns 0 and
	// last — takes the kernel's boundary value (v for subRelax, z or u + z
	// for addRelax, zero for the two mappings), written right after the
	// plane's rows while they are in cache.
	Frame bool
}

// Empty reports whether the span contains no planes.
func (s PlaneSpan) Empty() bool { return s.Hi < s.Lo }

// Count returns the number of planes in the span.
func (s PlaneSpan) Count() int {
	if s.Empty() {
		return 0
	}
	return s.Hi - s.Lo + 1
}

// PlaneVariant resolves the backend of a plane kernel whose rows have
// `row` interior points: wl.VariantFor at the level of that row extent,
// with no Env.Variant to honour. The key is the row the line buffers see,
// not the number of planes, so a thin slab of long rows still vectorises.
func PlaneVariant(row int) string { return wl.VariantFor(levelOfExtent(row), "") }

// SplitPlanes partitions the interior planes of an extended grid of n0
// planes (interior 1..n0-2, halo planes 0 and n0-1) into the boundary
// planes — those a periodic face exchange along the decomposed axis puts
// on the wire, in the order they should be computed and sent — and the
// interior span whose computation can overlap that exchange.
//
// With one interior plane the single plane is both faces (it is sent in
// both directions); with two there is no overlappable interior at all.
// SplitPlanes panics below one interior plane: such a level must be
// solved whole, never exchanged.
func SplitPlanes(n0 int) (boundary []int, interior PlaneSpan) {
	lp := n0 - 2
	if lp < 1 {
		panic("core: SplitPlanes needs at least one interior plane")
	}
	if lp == 1 {
		return []int{1}, PlaneSpan{Lo: 2, Hi: 1}
	}
	return []int{1, lp}, PlaneSpan{Lo: 2, Hi: lp - 1}
}
