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
	empty := PlaneSpan{Lo: 1, Hi: 0}
	cases := []struct {
		planes, lo, hi int
		faces          [2]PlaneSpan
		interior       PlaneSpan
	}{
		{1, 1, 1, [2]PlaneSpan{{Lo: 1, Hi: 1}, empty}, PlaneSpan{Lo: 2, Hi: 0}},                  // one plane: both faces
		{2, 1, 1, [2]PlaneSpan{{Lo: 1, Hi: 2}, empty}, PlaneSpan{Lo: 2, Hi: 1}},                  // two planes: the faces meet
		{3, 1, 1, [2]PlaneSpan{{Lo: 1, Hi: 1}, {Lo: 3, Hi: 3}}, PlaneSpan{Lo: 2, Hi: 2}},         // one overlappable plane
		{32, 1, 1, [2]PlaneSpan{{Lo: 1, Hi: 1}, {Lo: 32, Hi: 32}}, PlaneSpan{Lo: 2, Hi: 31}},     // class-S r over 1 rank
		{2, 2, 2, [2]PlaneSpan{{Lo: 1, Hi: 2}, empty}, PlaneSpan{Lo: 3, Hi: 0}},                  // a 16-rank class-S slab's u
		{3, 1, 2, [2]PlaneSpan{{Lo: 1, Hi: 3}, empty}, PlaneSpan{Lo: 2, Hi: 1}},                  // faces meet
		{8, 1, 2, [2]PlaneSpan{{Lo: 1, Hi: 1}, {Lo: 7, Hi: 8}}, PlaneSpan{Lo: 2, Hi: 6}},         // a correction's faces
		{256, 2, 2, [2]PlaneSpan{{Lo: 1, Hi: 2}, {Lo: 255, Hi: 256}}, PlaneSpan{Lo: 3, Hi: 254}}, // class-A u, 1 rank
	}
	for _, c := range cases {
		faces, interior := SplitPlanes(c.planes, c.lo, c.hi)
		if faces != c.faces || interior != c.interior {
			t.Fatalf("SplitPlanes(%d, %d, %d) = %+v, %+v; want %+v, %+v", c.planes, c.lo, c.hi, faces, interior, c.faces, c.interior)
		}
		// The split must cover the interior exactly once, and the faces
		// must hold the planes the exchange ships.
		seen := map[int]int{}
		for _, p := range append(faces[:], interior) {
			for q := p.Lo; q <= p.Hi; q++ {
				seen[q]++
			}
		}
		for q := 1; q <= c.planes; q++ {
			if seen[q] != 1 {
				t.Fatalf("SplitPlanes(%d, %d, %d): plane %d covered %d times", c.planes, c.lo, c.hi, q, seen[q])
			}
			if (q <= c.lo || q > c.planes-c.hi) && q >= interior.Lo && q <= interior.Hi {
				t.Fatalf("SplitPlanes(%d, %d, %d): face plane %d in the interior", c.planes, c.lo, c.hi, q)
			}
		}
		if len(seen) != c.planes {
			t.Fatalf("SplitPlanes(%d, %d, %d) covers planes outside 1..%d", c.planes, c.lo, c.hi, c.planes)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SplitPlanes(0, 1, 1) did not panic")
		}
	}()
	SplitPlanes(0, 1, 1)
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
// on a box whose three extents all differ, in every backend, split into
// two spans, and holds them to the generic O0 composition (stencil.Relax
// and the aplib array operations, which are shape-generic).
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
			InterpolatePlanes(pool, out.Data(), z.Data(), cs[1], cs[2], p, variant, s.Interp)
		})
		sameBits(t, name+"InterpolatePlanes", out, prolong)

		if st := pool.Stats(); st.Allocs+st.Reuses != st.Puts {
			t.Fatalf("%s%d line buffers not returned to the pool", name, st.Allocs+st.Reuses-st.Puts)
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
