// The kernel layer's public face: plane-range entry points of the fused
// kernels and of the two pipelined V-cycle legs, and the interior/boundary
// plane split a distributed caller schedules them with.
//
// SubRelaxPlanes and ProjectCondensePlanes (fused.go) are the plane loops
// core's own subRelax and projectCondense run — the same functions, not
// wrappers — opened to callers that own the grid: internal/mgmpi's ranks
// run SubRelaxPlanes (the last residual) and ProjectCondensePlanes (a
// slab's restriction) on their slabs. addRelax and interpolate have plane
// loops of the same contract that only this package calls. CorrectPlanes
// and ResidProjectPlanes (pipeline.go) are core's way up and way down, the
// same sweep, run on a slab: a grid cut along axis 0 whose planes beyond
// its interior are halo planes the caller exchanged, not the periodic wrap
// (their layout is in their comments). The contract:
//
//   - A grid is a flat row-major box with one halo cell on every side and
//     any number of planes. A plane is n × n with its halo: the entry
//     points take one lateral extent n (a coarse or fine one where they
//     map between levels).
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

// empty reports whether the span contains no planes.
func (s PlaneSpan) empty() bool { return s.Hi < s.Lo }

// Count returns the number of planes in the span.
func (s PlaneSpan) Count() int {
	if s.empty() {
		return 0
	}
	return s.Hi - s.Lo + 1
}

// PlaneVariant resolves the backend of a plane kernel whose rows have
// `row` interior points: wl.VariantFor at the level of that row extent,
// with no Env.Variant to honour. The key is the row the line buffers see,
// not the number of planes, so a thin slab of long rows still vectorises.
func PlaneVariant(row int) string { return wl.VariantFor(levelOfExtent(row), "") }

// SplitPlanes partitions the interior planes 1..planes of a slab into its
// two faces — the first lo planes, which a periodic exchange along axis 0
// ships down, and the last hi, which it ships up; one span, and an empty
// second, when they meet — and the interior span whose computation can
// overlap that exchange. SplitPlanes panics below one interior plane: such
// a level must be solved whole, never exchanged.
func SplitPlanes(planes, lo, hi int) (faces [2]PlaneSpan, interior PlaneSpan) {
	if planes < 1 {
		panic("core: SplitPlanes needs at least one interior plane")
	}
	interior = PlaneSpan{Lo: lo + 1, Hi: planes - hi}
	if lo+hi >= planes {
		return [2]PlaneSpan{{Lo: 1, Hi: planes}, {Lo: 1, Hi: 0}}, interior
	}
	return [2]PlaneSpan{{Lo: 1, Hi: lo}, {Lo: planes + 1 - hi, Hi: planes}}, interior
}
