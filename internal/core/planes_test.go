package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/aplib"
	"repro/internal/array"
	"repro/internal/mempool"
	"repro/internal/nas"
	"repro/internal/shape"
	wl "repro/internal/withloop"
)

func TestSplitPlanes(t *testing.T) {
	cases := []struct {
		n0       int
		boundary []int
		interior PlaneSpan
	}{
		{3, []int{1}, PlaneSpan{Lo: 2, Hi: 1}},          // one interior plane: both faces
		{4, []int{1, 2}, PlaneSpan{Lo: 2, Hi: 1}},       // two planes: nothing to overlap
		{5, []int{1, 3}, PlaneSpan{Lo: 2, Hi: 2}},       // one overlappable plane
		{34, []int{1, 32}, PlaneSpan{Lo: 2, Hi: 31}},    // class-S slab over 8 ranks
		{258, []int{1, 256}, PlaneSpan{Lo: 2, Hi: 255}}, // class-A slab, 1 rank
	}
	for _, c := range cases {
		boundary, interior := SplitPlanes(c.n0)
		if len(boundary) != len(c.boundary) {
			t.Fatalf("n0=%d: boundary %v, want %v", c.n0, boundary, c.boundary)
		}
		for i := range boundary {
			if boundary[i] != c.boundary[i] {
				t.Fatalf("n0=%d: boundary %v, want %v", c.n0, boundary, c.boundary)
			}
		}
		if interior != c.interior {
			t.Fatalf("n0=%d: interior %+v, want %+v", c.n0, interior, c.interior)
		}
		// The split must cover the interior exactly once.
		seen := map[int]bool{}
		for _, p := range boundary {
			seen[p] = true
		}
		for p := interior.Lo; p <= interior.Hi; p++ {
			if seen[p] {
				t.Fatalf("n0=%d: plane %d both boundary and interior", c.n0, p)
			}
			seen[p] = true
		}
		if got, want := len(seen), c.n0-2; got != want {
			t.Fatalf("n0=%d: split covers %d planes, want %d", c.n0, got, want)
		}
		if got := interior.Count(); got != c.n0-2-len(c.boundary) {
			t.Fatalf("n0=%d: interior Count=%d", c.n0, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SplitPlanes(2) did not panic")
		}
	}()
	SplitPlanes(2)
}

// randomBox returns a box of the given extents with reproducible non-zero
// values and a current periodic halo.
func randomBox(seed int64, n0, n1, n2 int) *array.Array {
	a := array.New(shape.Of(n0, n1, n2))
	rng := rand.New(rand.NewSource(seed))
	for i := range a.Data() {
		a.Data()[i] = rng.Float64() - 0.5
	}
	nas.Comm3(a)
	return a
}

// sameBits fails unless got and want agree in shape and in every bit.
func sameBits(t *testing.T, what string, got, want *array.Array) {
	t.Helper()
	if !got.Shape().Equal(want.Shape()) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i, w := range want.Data() {
		if g := got.Data()[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: element %d = %.17g, want %.17g", what, i, g, w)
		}
	}
}

// TestPlaneEntryPointsRectangular drives the four plane-range entry points
// on a box whose three extents all differ — what a rank of a 3-D processor
// grid owns — in every backend, split into two spans, and holds them to the
// generic O0 composition (stencil.Relax and the aplib array operations,
// which are shape-generic). InterpolatePlanes is also checked in its halo
// form (the fine halo interpolated from the coarse halo must equal the
// periodic image of the interior) and its accumulating form.
func TestPlaneEntryPointsRectangular(t *testing.T) {
	e := wl.Default()
	e.Opt = wl.O0
	s := New(e)
	const f0, f1, f2 = 10, 6, 18 // fine box; the coarse one is (6, 4, 10)
	fine := PlaneSpan{Lo: 1, Hi: f0 - 2}
	u, v := randomBox(1, f0, f1, f2), randomBox(2, f0, f1, f2)
	z := randomBox(3, f0/2+1, f1/2+1, f2/2+1)
	cs := z.Shape()

	resid := aplib.Sub(e, v, s.Resid(u))
	smooth := aplib.Add(e, v, s.Smooth(u))
	coarse := s.Fine2Coarse(u)
	prolong := s.Coarse2Fine(z)
	prolongHalo := prolong.Clone()
	nas.Comm3(prolongHalo)
	prolongAdd := aplib.Add(e, v, prolongHalo)

	// split runs f over p in two calls, the upper span first.
	split := func(p PlaneSpan, f func(PlaneSpan)) {
		mid := (p.Lo + p.Hi) / 2
		f(PlaneSpan{Lo: mid + 1, Hi: p.Hi})
		f(PlaneSpan{Lo: p.Lo, Hi: mid})
	}
	for _, variant := range []string{wl.VariantScalar, wl.VariantBuffered, wl.VariantSIMD} {
		name := variant + ": "
		pool := mempool.New(true)
		pool.SetParanoid(true)

		out := v.Clone() // the boundary of v − A·u and of v + S·u is v's
		split(fine, func(p PlaneSpan) {
			SubRelaxPlanes(pool, out.Data(), v.Data(), u.Data(), f1, f2, p, variant, s.Operator, nil, nil)
		})
		sameBits(t, name+"SubRelaxPlanes", out, resid)

		out = v.Clone()
		split(fine, func(p PlaneSpan) {
			AddRelaxPlanes(pool, out.Data(), out.Data(), nil, u.Data(), f1, f2, p, variant, s.Smoother)
		})
		sameBits(t, name+"AddRelaxPlanes in place", out, smooth)

		out = array.New(cs)
		split(PlaneSpan{Lo: 1, Hi: cs[0] - 2}, func(p PlaneSpan) {
			ProjectCondensePlanes(pool, out.Data(), u.Data(), f1, f2, p, variant, s.Project)
		})
		sameBits(t, name+"ProjectCondensePlanes", out, coarse)

		out = array.New(u.Shape())
		split(fine, func(p PlaneSpan) {
			InterpolatePlanes(pool, out.Data(), nil, z.Data(), cs[1], cs[2], p, false, variant, s.Interp)
		})
		sameBits(t, name+"InterpolatePlanes", out, prolong)

		out = array.New(u.Shape())
		split(PlaneSpan{Lo: 0, Hi: f0 - 1}, func(p PlaneSpan) {
			InterpolatePlanes(pool, out.Data(), nil, z.Data(), cs[1], cs[2], p, true, variant, s.Interp)
		})
		sameBits(t, name+"InterpolatePlanes with halo", out, prolongHalo)

		out = v.Clone()
		split(PlaneSpan{Lo: 0, Hi: f0 - 1}, func(p PlaneSpan) {
			InterpolatePlanes(pool, out.Data(), out.Data(), z.Data(), cs[1], cs[2], p, true, variant, s.Interp)
		})
		sameBits(t, name+"InterpolatePlanes accumulating", out, prolongAdd)

		if live := pool.Live(); live != 0 {
			t.Fatalf("%s%d line buffers not returned to the pool", name, live)
		}
	}
}

// PlaneVariant is PlanFor's rule keyed on the row extent.
func TestPlaneVariantFollowsDefaultRule(t *testing.T) {
	for row := 2; row <= 256; row *= 2 {
		_, want := wl.Default().PlanFor(levelOfExtent(row), 1)
		if got := PlaneVariant(row); got != want {
			t.Errorf("PlaneVariant(%d) = %q, the environment's plan says %q", row, got, want)
		}
	}
}
