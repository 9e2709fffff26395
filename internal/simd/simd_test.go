package simd_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/mempool"
	"repro/internal/simd"
	"repro/internal/stencil"
	wl "repro/internal/withloop"
)

// The plane primitives are held to the buffered rows they stand in for,
// bit for bit, through internal/core's plane-range entry points: the same
// call runs once with the simd backend and once with the buffered rows,
// each on fresh guarded copies of the same inputs. Those rows are the one
// Go statement of every kernel, so there is no second reference here.

// withAsm runs f with the AVX2 path off ("fallback": every primitive
// declines and the simd backend runs the buffered rows) and, where the host
// has it, on ("avx2").
func withAsm(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	live := simd.SetAsm(false)
	defer simd.SetAsm(live)
	t.Run("fallback", f)
	if live {
		simd.SetAsm(true)
		t.Run("avx2", f)
	}
}

var (
	// Interior row counts 1 … 9, 12, 15 and 16: a lone row, row pairs
	// with and without a last unpaired row, and subRelax's norm groups of
	// eight with none, one, some or seven rows left over.
	planeRows    = []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 14, 17, 18}
	planeExtents = []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 18, 34, 66, 130, 258}
	// The stencils' own vectors, a vector with no zero term, and one whose
	// face coefficient is a negative zero.
	planeCoeffs = []stencil.Coeffs{stencil.A, stencil.SClassSWA, stencil.P, {0.75, math.Copysign(0, -1), -0.5, 0.25}}
)

// values draws n values: normal ones, or with special set a mix in which a
// quarter are ±0, ±Inf, NaN, subnormals or overflowing magnitudes — where
// a dropped zero-coefficient term would meet an infinity (0·Inf is NaN).
func values(rng *rand.Rand, n int, special bool) []float64 {
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -3 * math.SmallestNonzeroFloat64, 0x1p-1030, math.MaxFloat64, -math.MaxFloat64}
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
		if special && rng.Intn(4) == 0 {
			v[i] = odd[rng.Intn(len(odd))]
		}
	}
	return v
}

// canary fills every guard cell and every cell a kernel is not meant to
// read before writing it: a signalling-NaN pattern that arithmetic never
// produces (it would come out quieted).
const canary = 0x7ff4_dead_beef_0bad

const guard = 8

// arena hands out guarded windows, starting offset cells past a 64-byte
// guard so that they begin at every 8-byte phase of a 32-byte vector, and
// checks after a kernel ran that no guard cell changed.
type arena struct {
	offset int
	backs  [][]float64
}

func (a *arena) window(n int) []float64 {
	back := make([]float64, n+2*guard+a.offset)
	for i := range back {
		back[i] = math.Float64frombits(canary)
	}
	a.backs = append(a.backs, back)
	lo := guard + a.offset
	return back[lo : lo+n : lo+n]
}

// stack lays planes of pl cells out as one grid between two canary planes;
// a nil plane is canaries too. Plane i of the list is grid plane i+1.
func (a *arena) stack(pl int, planes ...[]float64) []float64 {
	g := a.window((len(planes) + 2) * pl)
	for i, p := range planes {
		copy(g[(i+1)*pl:], p)
	}
	return g
}

// pool returns a pool holding one guarded window per row-buffer length:
// the kernel borrows its line buffers from it, so canaries surround them.
func (a *arena) pool(lengths ...int) *mempool.Pool {
	p := mempool.New(true)
	for _, n := range lengths {
		p.Put(a.window(n))
	}
	return p
}

func (a *arena) check(t *testing.T, what string) {
	t.Helper()
	for b, back := range a.backs {
		lo := guard + a.offset
		n := len(back) - lo - guard
		for i, v := range back {
			if (i < lo || i >= lo+n) && math.Float64bits(v) != canary {
				t.Fatalf("%s: wrote cell %d of guard %d (window of %d)", what, i-lo, b, n)
			}
		}
	}
}

// sameFloat is the comparison of two backends' outputs: equal bits, or
// both NaN (a NaN's payload may depend on operand order) and neither the
// canary (an unwritten cell).
func sameFloat(got, want float64) bool {
	g, w := math.Float64bits(got), math.Float64bits(want)
	return g == w || math.IsNaN(got) && math.IsNaN(want) && g != canary && w != canary
}

// conform runs one call with the simd backend and with the buffered rows,
// each in its own arena, and compares every cell of the grid run returns
// (the output) and the extra values it reports.
func conform(t *testing.T, what string, offset int, run func(variant string, a *arena) (grid, extra []float64)) {
	t.Helper()
	var grids, extras [2][]float64
	for i, variant := range []string{wl.VariantSIMD, wl.VariantBuffered} {
		a := &arena{offset: offset}
		grids[i], extras[i] = run(variant, a)
		a.check(t, what+" "+variant)
	}
	for i, want := range grids[1] {
		if got := grids[0][i]; !sameFloat(got, want) {
			t.Fatalf("%s: cell %d = %v (%#x), buffered rows %v (%#x)", what, i, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for i, want := range extras[1] {
		if got := extras[0][i]; !sameFloat(got, want) {
			t.Fatalf("%s: result %d = %v, buffered rows %v", what, i, got, want)
		}
	}
}

// conformRelax checks subRelax (without its norm rows, with their sums,
// and with their sums and maxima; o apart from v and o = v) and addRelax (z + S·r and w + (z + S·r), o apart, o = z
// and o = w) on one n1×n2 plane. The aliased forms reach both rows of
// every row pair, whose line buffers are filled before either row is
// stored; the pool offers only the relax kernels' line buffer, inside
// canaries.
func conformRelax(t *testing.T, n1, n2 int, in func(int) []float64) {
	pl := n1 * n2
	v, um, uz, up, o := in(pl), in(pl), in(pl), in(pl), in(pl)
	z, w, rm, rz, rp := in(pl), in(pl), in(pl), in(pl), in(pl)
	p := core.PlaneSpan{Lo: 2, Hi: 2}
	for ci, c := range planeCoeffs {
		for _, norm := range []string{"", "sums", "sums+maxs"} {
			for _, alias := range []bool{false, true} {
				what := fmt.Sprintf("subRelax %d×%d coeffs %d norm=%q o=v:%v", n1, n2, ci, norm, alias)
				conform(t, what, 0, func(variant string, a *arena) ([]float64, []float64) {
					vd, od := a.stack(pl, nil, v), a.stack(pl, nil, o)
					if alias {
						od = vd
					}
					var sums, maxs []float64
					if norm != "" {
						sums = make([]float64, 3)
					}
					if norm == "sums+maxs" {
						maxs = make([]float64, 3)
					}
					core.SubRelaxPlanes(a.pool(simd.RelaxLines*n2), od, vd, a.stack(pl, um, uz, up), n1, n2, p, variant, c, sums, maxs)
					return od, append(sums, maxs...)
				})
			}
		}
		for _, plus := range []bool{false, true} {
			for _, alias := range []string{"", "o=z", "o=w"} {
				if alias == "o=w" && !plus {
					continue
				}
				what := fmt.Sprintf("addRelax %d×%d coeffs %d plus=%v %s", n1, n2, ci, plus, alias)
				conform(t, what, 0, func(variant string, a *arena) ([]float64, []float64) {
					zd, od := a.stack(pl, nil, z), a.stack(pl, nil, o)
					var wd []float64
					if plus {
						wd = a.stack(pl, nil, w)
					}
					switch alias {
					case "o=z":
						od = zd
					case "o=w":
						od = wd
					}
					core.AddRelaxPlanes(a.pool(simd.RelaxLines*n2), od, zd, wd, a.stack(pl, rm, rz, rp), n1, n2, p, variant, c)
					return od, nil
				})
			}
		}
	}
}

// conformGrid checks projectCondense on a fine n1×n2 plane and interpolate
// (both fine-plane parities, with and without halo columns, Q·z, w + Q·z
// and w + Q·z with o = w) from coarse n1×n2 planes.
func conformGrid(t *testing.T, n1, n2, offset int, in func(int) []float64) {
	fpl, cpl := n1*n2, (n1/2+1)*(n2/2+1)
	rm, rz, rp := in(fpl), in(fpl), in(fpl)
	for ci, c := range planeCoeffs {
		what := fmt.Sprintf("projectCondense %d×%d offset %d coeffs %d", n1, n2, offset, ci)
		conform(t, what, offset, func(variant string, a *arena) ([]float64, []float64) {
			od := a.stack(cpl, nil)
			core.ProjectCondensePlanes(a.pool(n2, n2), od, a.stack(fpl, rm, rz, rp), n1, n2, core.PlaneSpan{Lo: 1, Hi: 1}, variant, c)
			return od, nil
		})
	}

	cpl, fpl = n1*n2, (2*n1-2)*(2*n2-2)
	zl, zh, w := in(cpl), in(cpl), in(fpl)
	for _, f3 := range []int{2, 3} { // on coarse plane 1; between planes 1 and 2
		for _, halo := range []bool{false, true} {
			for _, form := range []string{"Q·z", "w+Q·z", "w+Q·z o=w"} {
				what := fmt.Sprintf("interpolate %d×%d offset %d plane %d halo=%v %s", n1, n2, offset, f3, halo, form)
				stage := 0
				if form != "Q·z" {
					stage = 2*n2 - 2
				}
				conform(t, what, offset, func(variant string, a *arena) ([]float64, []float64) {
					od := a.stack(fpl, nil, nil, nil)
					var wd []float64
					if form != "Q·z" {
						wd = a.stack(fpl, w, w, w)
					}
					if form == "w+Q·z o=w" {
						od = wd
					}
					core.InterpolatePlanes(a.pool(n2, stage), od, wd, a.stack(cpl, zl, zh), n1, n2,
						core.PlaneSpan{Lo: f3, Hi: f3}, halo, variant, stencil.Q)
					return od, nil
				})
			}
		}
	}
}

// TestRowsBitIdentical checks the relax planes, simd against the buffered
// rows, on random values: planes of every row count in planeRows and one
// subtest pair per row length in planeExtents — rows whose interior is
// shorter than a four-lane block, tail-only, vector + tail, and classes
// W and A's rows.
func TestRowsBitIdentical(t *testing.T) {
	for _, n2 := range planeExtents {
		withAsm(t, func(t *testing.T) {
			for _, n1 := range planeRows {
				rng := rand.New(rand.NewSource(int64(1000*n1 + n2)))
				conformRelax(t, n1, n2, func(n int) []float64 { return values(rng, n, false) })
			}
		})
	}
}

// TestSpecialValues checks the relax planes on the same shapes with ±0,
// ±Inf, NaN and subnormals mixed in: simd drops the terms the buffered rows
// drop, so the two agree there too, signs of zero included.
func TestSpecialValues(t *testing.T) {
	withAsm(t, func(t *testing.T) {
		for _, n1 := range planeRows {
			for _, n2 := range planeExtents {
				rng := rand.New(rand.NewSource(int64(1000*n1 + n2)))
				conformRelax(t, n1, n2, func(n int) []float64 { return values(rng, n, true) })
			}
		}
	})
}

// TestInterpProjectRowsBitIdentical checks interpolate and projectCondense,
// simd against the buffered rows, for every row length 3..67 and classes W
// and A's, at every 8-byte phase of a 32-byte vector (phase i on planes of
// planeRows[i] rows), on random and on special values.
func TestInterpProjectRowsBitIdentical(t *testing.T) {
	var lengths []int
	for n := 3; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 130, 258)
	for _, special := range []bool{false, true} {
		for _, n2 := range lengths {
			for offset, n1 := range planeRows {
				withAsm(t, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(100*n2 + 10*offset + btoi(special))))
					conformGrid(t, n1, n2, offset, func(n int) []float64 { return values(rng, n, special) })
				})
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestAsmMatchesFallback holds the primitives to the declining contract
// that lets the buffered rows stand in for them: a primitive runs exactly
// when the AVX2 path is live and its plane has a four-lane block's worth of
// row (and rows to walk), and a declined call writes nothing. Too-short
// operands are declined too.
func TestAsmMatchesFallback(t *testing.T) {
	live := simd.SetAsm(false)
	defer simd.SetAsm(live)
	c := &[4]float64{0.5, 0.25, 0.125, 0.0625}
	rng := rand.New(rand.NewSource(7))
	for _, asm := range []bool{false, live} {
		simd.SetAsm(asm)
		for n1 := 0; n1 <= 5; n1++ {
			for n2 := 0; n2 <= 6; n2++ {
				pl := n1 * n2
				x := values(rng, pl, false)
				buf, buf2 := values(rng, max(n2, 4), false), values(rng, max(n2, 4), false)
				lines := values(rng, simd.RelaxLines*max(n2, 4), false)
				expect := func(what string, ran, want bool, out []float64) {
					t.Helper()
					if ran != want {
						t.Fatalf("%s %d×%d: ran = %v, want %v (AVX2 path live: %v)", what, n1, n2, ran, want, asm)
					}
					for i, v := range out {
						if !ran && math.Float64bits(v) != canary {
							t.Fatalf("%s %d×%d: declined but wrote cell %d", what, n1, n2, i)
						}
					}
				}
				relax := asm && n1 >= 3 && n2 >= 4
				o := (&arena{}).window(pl)
				_, _, ran := simd.SubRelaxPlane(o, x, x, x, x, n1, n2, c, lines, false, false)
				expect("SubRelaxPlane", ran, relax, o)
				o = (&arena{}).window(pl)
				expect("AddRelaxPlane", simd.AddRelaxPlane(o, x, nil, x, x, x, n1, n2, c, lines), relax, o)
				if relax {
					o = (&arena{}).window(pl)
					expect("AddRelaxPlane with a short line buffer", simd.AddRelaxPlane(o, x, nil, x, x, x, n1, n2, c, lines[:simd.RelaxLines*n2-1]), false, o)
				}
				o = (&arena{}).window((n1/2 + 1) * (n2/2 + 1))
				expect("ProjectPlane", simd.ProjectPlane(o, x, x, x, n1, n2, c, buf, buf2), asm && n1 >= 4 && n2 >= 4, o)
				if n1 >= 2 && n2 >= 2 {
					for m := 0; m <= 1; m++ {
						f := (&arena{}).window((2*n1 - 2) * (2*n2 - 2))
						expect("InterpPlane", simd.InterpPlane(f, nil, x, x, true, n1, n2, m, c, buf), asm && n2 >= 4 && 2*n1-2-2*m >= 1, f)
					}
				}
			}
		}
	}
}
