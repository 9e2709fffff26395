package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/simd"
	"repro/internal/stencil"
	wl "repro/internal/withloop"
)

// BenchmarkPlane* time one plane of each kernel in the buffered rows and
// in the simd primitive, at the finest row lengths of classes S, W and A,
// in nanoseconds per output point.
func BenchmarkPlaneSubRelax(b *testing.B) {
	planeBench(b, relaxBufs, func(k *kern, n int, p [6][]float64) int {
		k.subRelax(p[0], p[1], p[2], p[3], p[4], n, n, stencil.A, false, false)
		return (n - 2) * (n - 2)
	})
}

func BenchmarkPlaneAddRelax(b *testing.B) {
	planeBench(b, relaxBufs, func(k *kern, n int, p [6][]float64) int {
		k.addRelax(p[0], p[1], nil, p[2], p[3], p[4], n, n, stencil.SClassSWA)
		return (n - 2) * (n - 2)
	})
}

func BenchmarkPlaneProject(b *testing.B) {
	planeBench(b, func(n int) (int, int) { return n, n }, func(k *kern, n int, p [6][]float64) int {
		k.project(p[0], p[2], p[3], p[4], n, stencil.P)
		return (n/2 - 1) * (n/2 - 1)
	})
}

// The interpolated plane is the fine one; its cross-row buffer spans the
// coarse row under it.
func BenchmarkPlaneInterpolate(b *testing.B) {
	planeBench(b, func(n int) (int, int) { return n/2 + 1, n }, func(k *kern, n int, p [6][]float64) int {
		cn := n/2 + 1
		k.interpolate(p[0], p[2], p[3], true, cn, cn, 1, stencil.Q)
		return (n - 2) * (n - 2)
	})
}

// relaxBufs is the relax kernels' one line buffer (borrowRelax).
func relaxBufs(n int) (int, int) { return simd.RelaxLines * n, 0 }

// planeBench runs plane on n×n planes with line buffers of the lengths
// bufs returns for n.
func planeBench(b *testing.B, bufs func(n int) (b1, b2 int), plane func(k *kern, n int, p [6][]float64) int) {
	for _, n := range []int{34, 66, 258} {
		for _, variant := range []string{wl.VariantBuffered, wl.VariantSIMD} {
			b.Run(fmt.Sprintf("row%d/%s", n, variant), func(b *testing.B) {
				rng := rand.New(rand.NewSource(int64(n)))
				var p [6][]float64
				for i := range p {
					p[i] = make([]float64, n*n)
					for j := range p[i] {
						p[i][j] = rng.NormFloat64()
					}
				}
				b1, b2 := bufs(n)
				k := borrowKern(nil, variant, false, b1, b2)
				points := plane(&k, n, p)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					plane(&k, n, p)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*points), "ns/point")
				if variant == wl.VariantSIMD && !simd.Available() {
					b.Log("AVX2 path off: the simd rows ran the buffered fallback")
				}
			})
		}
	}
}

// The simd backend is held to the buffered rows it stands in for, bit for
// bit, through kern's methods: the same call runs once in each backend,
// each on fresh guarded copies of the same inputs. Those rows are the one
// Go statement of every kernel, so there is no second reference here. The
// relax kernels and interpolate run on planes of rows × n, as the way up's
// bands call them; projectCondense on whole n × n fine planes.

// withAsm runs f with the simd backend's primitive withheld ("fallback":
// its kern runs the buffered rows a declining primitive leaves to) and,
// where the AVX2 path is live, offered ("avx2").
func withAsm(t *testing.T, f func(t *testing.T, asm bool)) {
	t.Helper()
	t.Run("fallback", func(t *testing.T) { f(t, false) })
	if simd.Available() {
		t.Run("avx2", func(t *testing.T) { f(t, true) })
	}
}

var (
	// Interior row counts 0 … 9, 12, 15 and 16: none (a band's lone pair
	// of z rows, all halo), a lone row, row pairs with and without a last
	// unpaired row, and subRelax's norm groups of eight with none, one,
	// some or seven rows left over.
	planeRows    = []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 14, 17, 18}
	planeExtents = []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 18, 34, 66, 130, 258}
	// The stencils' own vectors, a vector with no zero term, and one whose
	// face coefficient is a negative zero.
	planeCoeffs = []stencil.Coeffs{stencil.A, stencil.SClassSWA, stencil.P, {0.75, math.Copysign(0, -1), -0.5, 0.25}}
	// The backends a comparison runs, its reference first.
	linedVariants = []string{wl.VariantBuffered, wl.VariantSIMD}
	allVariants   = []string{wl.VariantScalar, wl.VariantBuffered, wl.VariantSIMD}
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

// window is n canary cells between guards.
func (a *arena) window(n int) []float64 {
	back := make([]float64, n+2*guard+a.offset)
	for i := range back {
		back[i] = math.Float64frombits(canary)
	}
	a.backs = append(a.backs, back)
	lo := guard + a.offset
	return back[lo : lo+n : lo+n]
}

// of is a guarded copy of x.
func (a *arena) of(x []float64) []float64 {
	w := a.window(len(x))
	copy(w, x)
	return w
}

// kern is a kern of backend variant whose line buffers, b1 and b2 long (0
// for none), are guarded windows; its simd backend offers planes to the
// primitive only with asm set.
func (a *arena) kern(variant string, asm bool, b1, b2 int) kern {
	k := kern{lined: lined(variant), vec: asm && variant == wl.VariantSIMD}
	if k.lined {
		k.u1 = a.window(b1)
		if b2 > 0 {
			k.u2 = a.window(b2)
		}
	}
	return k
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

// conform runs one call in each of variants, each in its own arena, and
// holds every value run returns — a plane's cells, then any results the
// kernel reports — to the first variant's.
func conform(t *testing.T, what string, offset int, variants []string, run func(a *arena, variant string) []float64) {
	t.Helper()
	var want []float64
	for i, variant := range variants {
		a := &arena{offset: offset}
		got := run(a, variant)
		a.check(t, what+" "+variant)
		if i == 0 {
			want = got
			continue
		}
		for j, w := range want {
			if g := got[j]; !sameFloat(g, w) {
				t.Fatalf("%s: %s value %d = %v (%#x), %s rows %v (%#x)", what, variant, j, g, math.Float64bits(g), variants[0], w, math.Float64bits(w))
			}
		}
	}
}

// conformRelax checks subRelax (without its norm rows, with their sums,
// and with their sums and maxima; o apart from v and o = v) and addRelax
// (z + S·r and w + (z + S·r), o apart, o = z and o = w) on one plane of
// rows × n. The aliased forms reach both rows of every row pair, whose
// line buffers are filled before either row is stored; the relax kernels'
// line buffer sits inside canaries.
func conformRelax(t *testing.T, asm bool, rows, n int, in func(int) []float64) {
	pl := rows * n
	v, um, uz, up, o := in(pl), in(pl), in(pl), in(pl), in(pl)
	z, w, rm, rz, rp := in(pl), in(pl), in(pl), in(pl), in(pl)
	for ci, c := range planeCoeffs {
		for _, norm := range []string{"", "sums", "sums+maxs"} {
			for _, alias := range []bool{false, true} {
				what := fmt.Sprintf("subRelax %d×%d coeffs %d norm=%q o=v:%v", rows, n, ci, norm, alias)
				conform(t, what, 0, linedVariants, func(a *arena, variant string) []float64 {
					k := a.kern(variant, asm, simd.RelaxLines*n, 0)
					vd, od := a.of(v), a.of(o)
					if alias {
						od = vd
					}
					sum, maxAbs := k.subRelax(od, vd, a.of(um), a.of(uz), a.of(up), rows, n, c, norm != "", norm == "sums+maxs")
					return append(od, sum, maxAbs)
				})
			}
		}
		for _, plus := range []bool{false, true} {
			for _, alias := range []string{"", "o=z", "o=w"} {
				if alias == "o=w" && !plus {
					continue
				}
				what := fmt.Sprintf("addRelax %d×%d coeffs %d plus=%v %s", rows, n, ci, plus, alias)
				conform(t, what, 0, linedVariants, func(a *arena, variant string) []float64 {
					k := a.kern(variant, asm, simd.RelaxLines*n, 0)
					zd, od := a.of(z), a.of(o)
					var wd []float64
					if plus {
						wd = a.of(w)
					}
					switch alias {
					case "o=z":
						od = zd
					case "o=w":
						od = wd
					}
					k.addRelax(od, zd, wd, a.of(rm), a.of(rz), a.of(rp), rows, n, c)
					return od
				})
			}
		}
	}
}

// conformProject checks projectCondense on one fine n × n plane.
func conformProject(t *testing.T, asm bool, n, offset int, in func(int) []float64) {
	fpl, cpl := n*n, (n/2+1)*(n/2+1)
	rm, rz, rp := in(fpl), in(fpl), in(fpl)
	for ci, c := range planeCoeffs {
		what := fmt.Sprintf("projectCondense %d×%d offset %d coeffs %d", n, n, offset, ci)
		conform(t, what, offset, linedVariants, func(a *arena, variant string) []float64 {
			k := a.kern(variant, asm, n, n)
			od := a.window(cpl)
			k.project(od, a.of(rm), a.of(rz), a.of(rp), n, c)
			return od
		})
	}
}

// conformInterp checks interpolate, both fine-plane parities, from coarse
// planes of rows × cn, against the scalar rows too: on the interior rows
// and columns (m = 1), or with the halo rows and columns (m = 0), which the
// way up computes from z's halo and which must all be written.
func conformInterp(t *testing.T, asm bool, rows, cn, m, offset int, in func(int) []float64) {
	cpl, fpl := rows*cn, (2*rows-2)*(2*cn-2)
	zl, zh := in(cpl), in(cpl)
	for _, o3 := range []bool{false, true} {
		what := fmt.Sprintf("interpolate %d×%d coarse offset %d m=%d odd plane %v", rows, cn, offset, m, o3)
		conform(t, what, offset, allVariants, func(a *arena, variant string) []float64 {
			k := a.kern(variant, asm, cn, 0)
			od := a.window(fpl)
			k.interpolate(od, a.of(zl), a.of(zh), o3, rows, cn, m, stencil.Q)
			for i, v := range od {
				if m == 0 && math.Float64bits(v) == canary {
					t.Fatalf("%s %s: cell %d of the plane not written", what, variant, i)
				}
			}
			return od
		})
	}
}

// TestRowsBitIdentical checks the relax planes, simd against the buffered
// rows, on random values: planes of every row count in planeRows and one
// subtest pair per row length in planeExtents — rows whose interior is
// shorter than a four-lane block, tail-only, vector + tail, and classes
// W and A's rows.
func TestRowsBitIdentical(t *testing.T) {
	for _, n := range planeExtents {
		withAsm(t, func(t *testing.T, asm bool) {
			for _, rows := range planeRows {
				rng := rand.New(rand.NewSource(int64(1000*rows + n)))
				conformRelax(t, asm, rows, n, func(k int) []float64 { return values(rng, k, false) })
			}
		})
	}
}

// TestSpecialValues checks the relax planes on the same shapes with ±0,
// ±Inf, NaN and subnormals mixed in: simd drops the terms the buffered rows
// drop, so the two agree there too, signs of zero included.
func TestSpecialValues(t *testing.T) {
	withAsm(t, func(t *testing.T, asm bool) {
		for _, rows := range planeRows {
			for _, n := range planeExtents {
				rng := rand.New(rand.NewSource(int64(1000*rows + n)))
				conformRelax(t, asm, rows, n, func(k int) []float64 { return values(rng, k, true) })
			}
		}
	})
}

// interpLengths are the row lengths of the interpolate and projectCondense
// tests: every length 3..67 and classes W and A's.
func interpLengths() []int {
	var lengths []int
	for n := 3; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	return append(lengths, 130, 258)
}

// TestInterpProjectRowsBitIdentical checks projectCondense, simd against
// the buffered rows, and interpolate's interior rows, simd and buffered
// against the scalar rows, for every row length of interpLengths, on random
// and on special values. Windows start at offset i for interpolate's coarse
// planes of planeRows[i] rows and at offsets 0 … 3, every 8-byte phase of a
// 32-byte vector, for projectCondense's n × n.
func TestInterpProjectRowsBitIdentical(t *testing.T) {
	for s, special := range []bool{false, true} {
		for _, n := range interpLengths() {
			for offset, rows := range planeRows {
				withAsm(t, func(t *testing.T, asm bool) {
					rng := rand.New(rand.NewSource(int64(100*n + 10*offset + s)))
					in := func(k int) []float64 { return values(rng, k, special) }
					if offset < 4 {
						conformProject(t, asm, n, offset, in)
					}
					conformInterp(t, asm, rows, n, 1, offset, in)
				})
			}
		}
	}
}

// TestInterpolateHaloRowsBitIdentical holds interpolate's halo rows — m = 0,
// the fine frame interpolated from z's halo like any other point, which the
// pipelined way up computes — in the buffered and simd backends to the
// scalar rows, on the shapes, offsets and values of
// TestInterpProjectRowsBitIdentical.
func TestInterpolateHaloRowsBitIdentical(t *testing.T) {
	withAsm(t, func(t *testing.T, asm bool) {
		for s, special := range []bool{false, true} {
			for _, n := range interpLengths() {
				for offset, rows := range planeRows {
					rng := rand.New(rand.NewSource(int64(100*n + 10*offset + s)))
					conformInterp(t, asm, rows, n, 0, offset, func(k int) []float64 { return values(rng, k, special) })
				}
			}
		}
	})
}
