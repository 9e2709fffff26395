package stencil

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/array"
	"repro/internal/mgtest"
	"repro/internal/shape"
	wl "repro/internal/withloop"
)

func genericEnv() *wl.Env {
	e := wl.Default()
	e.Opt = wl.O0
	e.SeqThreshold = 0
	return e
}

func fusedEnv() *wl.Env {
	e := wl.Default()
	e.SeqThreshold = 0
	return e
}

func randomGrid(n0, n1, n2 int, seed float64) *array.Array {
	e := wl.Default()
	shp := shape.Of(n0, n1, n2)
	return e.Genarray(shp, wl.Full(shp), func(iv shape.Index) float64 {
		return math.Sin(seed + float64(iv[0]*31+iv[1]*17+iv[2]*7))
	})
}

func TestNeighbourhoodCounts(t *testing.T) {
	for rank, want := range map[int]int{1: 2, 2: 8, 3: 26} {
		nbs := neighbourhood(rank)
		if len(nbs) != want {
			t.Errorf("rank %d: %d neighbours, want %d", rank, len(nbs), want)
		}
		classes := map[int]int{}
		for _, nb := range nbs {
			classes[nb.class]++
		}
		if rank == 3 && (classes[1] != 6 || classes[2] != 12 || classes[3] != 8) {
			t.Errorf("rank 3 class counts = %v, want 6/12/8", classes)
		}
	}
}

// A constant grid relaxed with any stencil yields (sum of all 27
// coefficients) * constant on every inner element.
func TestRelaxConstantGrid(t *testing.T) {
	for name, c := range map[string]Coeffs{
		"A": A, "S(SWA)": SClassSWA, "S(BC)": SClassBC, "P": P, "Q": Q,
	} {
		total := c[0] + 6*c[1] + 12*c[2] + 8*c[3]
		a := mgtest.NewFilled(shape.Of(5, 5, 5), 2.0)
		got := Relax(fusedEnv(), a, c)
		for i := 1; i < 4; i++ {
			for j := 1; j < 4; j++ {
				for k := 1; k < 4; k++ {
					if d := math.Abs(got.At3(i, j, k) - 2*total); d > 1e-14 {
						t.Fatalf("%s: inner element = %g, want %g", name, got.At3(i, j, k), 2*total)
					}
				}
			}
		}
	}
}

// The A stencil annihilates constants: its coefficients sum to zero, which
// is what makes it a discrete Laplacian.
func TestAStencilAnnihilatesConstants(t *testing.T) {
	sum := A[0] + 6*A[1] + 12*A[2] + 8*A[3]
	if math.Abs(sum) > 1e-15 {
		t.Fatalf("A coefficients sum to %g, want 0", sum)
	}
	a := mgtest.NewFilled(shape.Of(4, 4, 4), 7.3)
	got := Relax(fusedEnv(), a, A)
	for i := 1; i < 3; i++ {
		for j := 1; j < 3; j++ {
			for k := 1; k < 3; k++ {
				if math.Abs(got.At3(i, j, k)) > 1e-13 {
					t.Fatalf("A on constant grid gives %g at (%d,%d,%d)", got.At3(i, j, k), i, j, k)
				}
			}
		}
	}
}

// The Q stencil applied to a scattered grid performs trilinear
// interpolation: the interpolation-operator coefficients 1, 1/2, 1/4, 1/8
// average the 1, 2, 4 or 8 nearest coarse points.
func TestQStencilInterpolates(t *testing.T) {
	// A grid that is non-zero only at even positions (a scatter result).
	e := fusedEnv()
	shp := shape.Of(6, 6, 6)
	a := e.Genarray(shp, wl.Full(shp).WithStep([]int{2, 2, 2}), func(iv shape.Index) float64 {
		return float64(iv[0] + iv[1] + iv[2] + 2)
	})
	got := Relax(e, a, Q)
	// Even-even-even inner point: exactly the coarse value.
	if math.Abs(got.At3(2, 2, 2)-a.At3(2, 2, 2)) > 1e-14 {
		t.Fatalf("even point = %g, want %g", got.At3(2, 2, 2), a.At3(2, 2, 2))
	}
	// Odd along one axis: average of the two neighbours.
	want := 0.5 * (a.At3(2, 2, 2) + a.At3(4, 2, 2))
	if math.Abs(got.At3(3, 2, 2)-want) > 1e-14 {
		t.Fatalf("face point = %g, want %g", got.At3(3, 2, 2), want)
	}
	// Odd along all axes: average of the eight corners.
	sum := 0.0
	for di := 2; di <= 4; di += 2 {
		for dj := 2; dj <= 4; dj += 2 {
			for dk := 2; dk <= 4; dk += 2 {
				sum += a.At3(di, dj, dk)
			}
		}
	}
	if math.Abs(got.At3(3, 3, 3)-sum/8) > 1e-14 {
		t.Fatalf("corner point = %g, want %g", got.At3(3, 3, 3), sum/8)
	}
}

func TestRelaxBoundaryZero(t *testing.T) {
	a := randomGrid(5, 6, 7, 1)
	got := Relax(fusedEnv(), a, SClassSWA)
	shp := a.Shape()
	for i := 0; i < shp[0]; i++ {
		for j := 0; j < shp[1]; j++ {
			for k := 0; k < shp[2]; k++ {
				onBorder := i == 0 || i == shp[0]-1 || j == 0 || j == shp[1]-1 || k == 0 || k == shp[2]-1
				if onBorder && got.At3(i, j, k) != 0 {
					t.Fatalf("boundary (%d,%d,%d) = %g, want 0", i, j, k, got.At3(i, j, k))
				}
			}
		}
	}
}

// Relax is one kernel at every optimization level: in the O3 environment
// the folded kernels of internal/core are checked against, it computes the
// bits of the O0 per-element path.
func TestFusedMatchesGenericBitwise(t *testing.T) {
	for _, c := range []Coeffs{A, SClassSWA, P, Q} {
		for _, dims := range [][3]int{{3, 3, 3}, {4, 5, 6}, {10, 10, 10}, {9, 4, 12}} {
			a := randomGrid(dims[0], dims[1], dims[2], float64(dims[0]))
			ref := Relax(genericEnv(), a, c)
			got := Relax(fusedEnv(), a, c)
			if !got.Equal(ref) {
				t.Fatalf("dims %v coeffs %v: O3 relaxation diverges from O0 (max diff %g)",
					dims, c, mgtest.MaxAbsDiff(got, ref))
			}
		}
	}
}

// Parallel execution must also be bit-identical: the WITH-loop's static
// blocks change no value.
func TestFusedParallelMatchesSequential(t *testing.T) {
	par := wl.Parallel(4)
	defer par.Close()
	par.SeqThreshold = 0
	a := randomGrid(12, 11, 10, 3)
	ref := Relax(fusedEnv(), a, A)
	got := Relax(par, a, A)
	if !got.Equal(ref) {
		t.Fatal("parallel relaxation diverges from sequential")
	}
}

// Property: relaxation is linear — Relax(αx + βy) == αRelax(x) + βRelax(y)
// up to rounding.
func TestRelaxLinearityQuick(t *testing.T) {
	e := fusedEnv()
	f := func(alphaRaw, betaRaw int8, seedRaw uint8) bool {
		alpha := float64(alphaRaw) / 16
		beta := float64(betaRaw) / 16
		x := randomGrid(5, 5, 5, float64(seedRaw))
		y := randomGrid(5, 5, 5, float64(seedRaw)+100)
		shp := x.Shape()
		comb := e.Genarray(shp, wl.Full(shp), func(iv shape.Index) float64 {
			return alpha*x.At(iv) + beta*y.At(iv)
		})
		left := Relax(e, comb, A)
		rx := Relax(e, x, A)
		ry := Relax(e, y, A)
		right := e.Genarray(shp, wl.Full(shp), func(iv shape.Index) float64 {
			return alpha*rx.At(iv) + beta*ry.At(iv)
		})
		return mgtest.ApproxEqual(left, right, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRelaxRank1And2(t *testing.T) {
	e := genericEnv()
	// Rank 1: out[i] = c0*a[i] + c1*(a[i-1]+a[i+1]).
	a1 := array.FromSlice(shape.Of(4), []float64{1, 2, 3, 4})
	got1 := Relax(e, a1, Coeffs{2, 1, 0, 0})
	want1 := array.FromSlice(shape.Of(4), []float64{0, 2*2 + (1 + 3), 2*3 + (2 + 4), 0})
	if !mgtest.ApproxEqual(got1, want1, 1e-14) {
		t.Fatalf("rank-1 relax = %v, want %v", got1, want1)
	}
	// Rank 2: check one inner element by hand.
	a2 := array.FromSlice(shape.Of(3, 3), []float64{1, 2, 3, 4, 5, 6, 7, 8, 9})
	got2 := Relax(e, a2, Coeffs{1, 0.5, 0.25, 0})
	want := 1*5.0 + 0.5*(2+4+6+8) + 0.25*(1+3+7+9)
	if math.Abs(got2.At(shape.Index{1, 1})-want) > 1e-14 {
		t.Fatalf("rank-2 relax centre = %g, want %g", got2.At(shape.Index{1, 1}), want)
	}
}

func TestRelaxRankPanics(t *testing.T) {
	e := wl.Default()
	for _, a := range []*array.Array{array.Scalar(1), array.New(shape.Of(2, 2, 2, 2))} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rank %d did not panic", a.Dim())
				}
			}()
			Relax(e, a, A)
		}()
	}
}

func TestTinyGridsAllZero(t *testing.T) {
	// Grids with no inner points produce all-zero output.
	for _, dims := range [][3]int{{2, 5, 5}, {5, 2, 5}, {5, 5, 2}, {1, 1, 1}} {
		a := mgtest.NewFilled(shape.Of(dims[0], dims[1], dims[2]), 3)
		for _, v := range Relax(fusedEnv(), a, A).Data() {
			if v != 0 {
				t.Fatalf("dims %v: tiny grid relax non-zero", dims)
			}
		}
	}
}

func benchRelax(b *testing.B, f func(*array.Array) *array.Array) {
	a := randomGrid(66, 66, 66, 1)
	e := wl.Default()
	b.ReportAllocs()
	b.SetBytes(int64(a.Size() * 8))
	for i := 0; i < b.N; i++ {
		out := f(a)
		e.Release(out)
	}
}

// The generic WITH-loop relaxation; the four-multiplication and
// line-buffered forms of the paper's §5 flop analysis are core's plane
// kernel backends (BenchmarkSACVariant in the repository root).
func BenchmarkRelaxGenericWithLoop(b *testing.B) {
	e := genericEnv()
	benchRelax(b, func(a *array.Array) *array.Array { return Relax(e, a, A) })
}
