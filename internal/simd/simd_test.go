package simd_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/nas"
	"repro/internal/simd"
	"repro/internal/stencil"
)

// Each primitive is held, bit for bit, to the buffered rows it stands in
// for (internal/core/lined.go), restated below as the reference rows: one
// statement per output point in the rows' association, dropping the same
// exact-zero terms. The primitive runs alone on guarded windows; where it
// declines, it must leave its output as it was, and the reference rows
// compute it, as core's kern does. core's simdplane_test.go ties the same
// primitives to core's own rows through kern.

// withAsm runs f with the AVX2 path off ("fallback": every primitive
// declines and the reference rows compute every plane) and, where the
// host has it, on ("avx2").
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

// canary fills every guard cell and every cell a primitive is not meant to
// read before writing it: a signalling-NaN pattern that arithmetic never
// produces (it would come out quieted).
const canary = 0x7ff4_dead_beef_0bad

const guard = 8

// arena hands out guarded windows, starting offset cells past a 64-byte
// guard so that they begin at every 8-byte phase of a 32-byte vector, and
// checks after a primitive ran that no guard cell changed.
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

// sameFloat is the comparison of a primitive's output with the reference
// rows': equal bits, or both NaN (a NaN's payload may depend on operand
// order) and neither the canary (an unwritten cell).
func sameFloat(got, want float64) bool {
	g, w := math.Float64bits(got), math.Float64bits(want)
	return g == w || math.IsNaN(got) && math.IsNaN(want) && g != canary && w != canary
}

// conform holds every value of got — a plane's cells, then any results
// the primitive reports — to want's.
func conform(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i, w := range want {
		if g := got[i]; !sameFloat(g, w) {
			t.Fatalf("%s: value %d = %v (%#x), reference rows %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// declined is the contract a declining call keeps: o is as it was.
func declined(t *testing.T, what string, o, was []float64) {
	t.Helper()
	for i, v := range was {
		if math.Float64bits(o[i]) != math.Float64bits(v) {
			t.Fatalf("%s: declined but wrote cell %d", what, i)
		}
	}
}

// The reference rows. relaxSums returns, at cell i of the planes m, z and
// p (rows of n), the centre value and the relaxation's sub-sums in the
// buffered rows' association: u1 and u2 are their line buffers' entries.
func relaxSums(m, z, p []float64, i, n int) (x, s1, s2, s3 float64) {
	u1 := func(i int) float64 { return ((m[i] + z[i-n]) + z[i+n]) + p[i] }
	u2 := func(i int) float64 { return ((m[i-n] + m[i+n]) + p[i-n]) + p[i+n] }
	return z[i], (z[i-1] + z[i+1]) + u1(i), (u2(i) + u1(i-1)) + u1(i+1), u2(i-1) + u2(i+1)
}

// subRelaxRows is SubRelaxPlane's reference: o = v − A·u on the interior
// of one rows × n plane (c1·s1 dropped when c1 is zero), with the norm
// partials folded row by row as core's kern folds them.
func subRelaxRows(o, v, um, uz, up []float64, rows, n int, c stencil.Coeffs, norm, abs bool) (sum, maxAbs float64) {
	for zz := n; zz < (rows-1)*n; zz += n {
		for i := zz + 1; i < zz+n-1; i++ {
			x, s1, s2, s3 := relaxSums(um, uz, up, i, n)
			if c[1] == 0 {
				o[i] = v[i] - ((c[0]*x + c[2]*s2) + c[3]*s3)
			} else {
				o[i] = v[i] - (((c[0]*x + c[1]*s1) + c[2]*s2) + c[3]*s3)
			}
		}
		if norm {
			acc, m := nas.SumSquares(o[zz+1:zz+n-1], maxAbs)
			sum += acc
			if abs {
				maxAbs = m
			}
		}
	}
	return sum, maxAbs
}

// addRelaxRows is AddRelaxPlane's reference: o = z + S·r (w nil) or
// o = w + (z + S·r) on the interior of one rows × n plane (c3·s3 dropped
// when c3 is zero).
func addRelaxRows(o, z, w, rm, rz, rp []float64, rows, n int, c stencil.Coeffs) {
	for zz := n; zz < (rows-1)*n; zz += n {
		for i := zz + 1; i < zz+n-1; i++ {
			x, s1, s2, s3 := relaxSums(rm, rz, rp, i, n)
			r := (c[0]*x + c[1]*s1) + c[2]*s2
			if c[3] != 0 {
				r += c[3] * s3
			}
			if w == nil {
				o[i] = z[i] + r
			} else {
				o[i] = w[i] + (z[i] + r)
			}
		}
	}
}

// projectRows is ProjectPlane's reference: the relaxation at the even
// fine points of one fn × fn fine plane, into the coarse plane's interior.
func projectRows(o, rm, rz, rp []float64, fn int, c stencil.Coeffs) {
	cn := fn/2 + 1
	for j := 1; j < cn-1; j++ {
		for l := 1; l < cn-1; l++ {
			x, s1, s2, s3 := relaxSums(rm, rz, rp, 2*j*fn+2*l, fn)
			o[j*cn+l] = ((c[0]*x + c[1]*s1) + c[2]*s2) + c[3]*s3
		}
	}
}

// interpRows is InterpPlane's reference: o = Q·z on rows and columns
// m … extent−1−m of one fine plane from the rows × cn coarse planes zl and
// zh (o3: the fine plane lies between them). A fine point sums the coarse
// points it lies on or between, in the rows' pairing, and weighs the sum
// by how many of its axes are off-anchor.
func interpRows(o, zl, zh []float64, o3 bool, rows, cn, m int, c stencil.Coeffs) {
	fn1, fn2 := 2*rows-2, 2*cn-2
	for f2 := m; f2 < fn1-m; f2++ {
		bl, bh := f2/2*cn, (f2+1)/2*cn
		// col is the sum over the fine row's coarse rows at coarse column
		// l, and off the number of its off-anchor axes.
		col := func(l int) float64 {
			switch {
			case !o3 && f2&1 == 0:
				return zl[bl+l]
			case !o3:
				return zl[bl+l] + zl[bh+l]
			case f2&1 == 0:
				return zl[bl+l] + zh[bl+l]
			}
			return ((zl[bl+l] + zl[bh+l]) + zh[bl+l]) + zh[bh+l]
		}
		off := f2 & 1
		if o3 {
			off++
		}
		for f1 := m; f1 < fn2-m; f1++ {
			if f1&1 == 0 {
				o[f2*fn2+f1] = c[off] * col(f1/2)
			} else {
				o[f2*fn2+f1] = c[off+1] * (col(f1/2) + col(f1/2+1))
			}
		}
	}
}

// conformRelax checks SubRelaxPlane (without its norm rows, with their
// sums, and with their sums and maxima; o apart from v and o = v) and
// AddRelaxPlane (z + S·r and w + (z + S·r), o apart, o = z and o = w) on
// one rows × n plane. The aliased forms reach both rows of every row pair,
// whose line buffers are filled before either row is stored; the line
// buffer sits inside canaries.
func conformRelax(t *testing.T, rows, n int, in func(int) []float64) {
	pl := rows * n
	v, um, uz, up, o := in(pl), in(pl), in(pl), in(pl), in(pl)
	z, w, rm, rz, rp := in(pl), in(pl), in(pl), in(pl), in(pl)
	for ci, c := range planeCoeffs {
		for _, norm := range []string{"", "sums", "sums+maxs"} {
			for _, alias := range []bool{false, true} {
				what := fmt.Sprintf("SubRelaxPlane %d×%d coeffs %d norm=%q o=v:%v", rows, n, ci, norm, alias)
				a := &arena{}
				vd, od := a.of(v), a.of(o)
				if alias {
					od = vd
				}
				want := slices.Clone(od)
				wsum, wmax := subRelaxRows(want, v, um, uz, up, rows, n, c, norm != "", norm == "sums+maxs")
				was := slices.Clone(od)
				umd, uzd, upd := a.of(um), a.of(uz), a.of(up)
				sum, maxAbs, ran := simd.SubRelaxPlane(od, vd, umd, uzd, upd, rows, n, (*[4]float64)(&c),
					a.window(simd.RelaxLines*n), norm != "", norm == "sums+maxs")
				if !ran {
					declined(t, what, od, was)
					sum, maxAbs = subRelaxRows(od, vd, umd, uzd, upd, rows, n, c, norm != "", norm == "sums+maxs")
				}
				a.check(t, what)
				conform(t, what, append(od, sum, maxAbs), append(want, wsum, wmax))
			}
		}
		for _, plus := range []bool{false, true} {
			for _, alias := range []string{"", "o=z", "o=w"} {
				if alias == "o=w" && !plus {
					continue
				}
				what := fmt.Sprintf("AddRelaxPlane %d×%d coeffs %d plus=%v %s", rows, n, ci, plus, alias)
				a := &arena{}
				zd, od := a.of(z), a.of(o)
				var wd, wv []float64
				if plus {
					wd, wv = a.of(w), w
				}
				switch alias {
				case "o=z":
					od = zd
				case "o=w":
					od = wd
				}
				want := slices.Clone(od)
				addRelaxRows(want, z, wv, rm, rz, rp, rows, n, c)
				was := slices.Clone(od)
				rmd, rzd, rpd := a.of(rm), a.of(rz), a.of(rp)
				if !simd.AddRelaxPlane(od, zd, wd, rmd, rzd, rpd, rows, n, (*[4]float64)(&c), a.window(simd.RelaxLines*n)) {
					declined(t, what, od, was)
					addRelaxRows(od, zd, wd, rmd, rzd, rpd, rows, n, c)
				}
				a.check(t, what)
				conform(t, what, od, want)
			}
		}
	}
}

// conformGrid checks ProjectPlane on a fine n2 × n2 plane (at offsets 0 … 3,
// every phase of a vector; project never runs on a band) and InterpPlane,
// both fine-plane parities, interior and with the frame (m = 1 and 0),
// from coarse n1 × n2 planes.
func conformGrid(t *testing.T, n1, n2, offset int, in func(int) []float64) {
	if offset < 4 {
		fpl, cpl := n2*n2, (n2/2+1)*(n2/2+1)
		rm, rz, rp := in(fpl), in(fpl), in(fpl)
		for ci, c := range planeCoeffs {
			what := fmt.Sprintf("ProjectPlane %d×%d offset %d coeffs %d", n2, n2, offset, ci)
			a := &arena{offset: offset}
			od := a.window(cpl)
			want := slices.Clone(od)
			projectRows(want, rm, rz, rp, n2, c)
			was := slices.Clone(od)
			rmd, rzd, rpd := a.of(rm), a.of(rz), a.of(rp)
			if !simd.ProjectPlane(od, rmd, rzd, rpd, n2, (*[4]float64)(&c), a.window(n2), a.window(n2)) {
				declined(t, what, od, was)
				projectRows(od, rmd, rzd, rpd, n2, c)
			}
			a.check(t, what)
			conform(t, what, od, want)
		}
	}

	cpl, fpl := n1*n2, (2*n1-2)*(2*n2-2)
	zl, zh := in(cpl), in(cpl)
	for m := 0; m <= 1; m++ {
		for _, o3 := range []bool{false, true} {
			what := fmt.Sprintf("InterpPlane %d×%d coarse offset %d m=%d odd plane %v", n1, n2, offset, m, o3)
			a := &arena{offset: offset}
			od := a.window(fpl)
			want := slices.Clone(od)
			interpRows(want, zl, zh, o3, n1, n2, m, stencil.Q)
			was := slices.Clone(od)
			zld, zhd := a.of(zl), a.of(zh)
			if !simd.InterpPlane(od, zld, zhd, o3, n1, n2, m, (*[4]float64)(&stencil.Q), a.window(n2)) {
				declined(t, what, od, was)
				interpRows(od, zld, zhd, o3, n1, n2, m, stencil.Q)
			}
			a.check(t, what)
			conform(t, what, od, want)
		}
	}
}

// TestRowsBitIdentical checks the relax primitives against the reference
// rows on random values: planes of every row count in planeRows and one
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

// TestSpecialValues checks the relax primitives on the same shapes with
// ±0, ±Inf, NaN and subnormals mixed in: they drop the terms the buffered
// rows drop, so the two agree there too, signs of zero included.
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

// TestInterpProjectRowsBitIdentical checks InterpPlane and ProjectPlane
// against the reference rows for every row length 3..67 and classes W and
// A's, at every 8-byte phase of a 32-byte vector (phase i on coarse planes
// of planeRows[i] rows), on random and on special values.
func TestInterpProjectRowsBitIdentical(t *testing.T) {
	var lengths []int
	for n := 3; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 130, 258)
	for s, special := range []bool{false, true} {
		for _, n2 := range lengths {
			for offset, n1 := range planeRows {
				withAsm(t, func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(100*n2 + 10*offset + s)))
					conformGrid(t, n1, n2, offset, func(n int) []float64 { return values(rng, n, special) })
				})
			}
		}
	}
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
				if n1 == n2 {
					o = (&arena{}).window((n2/2 + 1) * (n2/2 + 1))
					expect("ProjectPlane", simd.ProjectPlane(o, x, x, x, n2, c, buf, buf2), asm && n2 >= 4, o)
				}
				if n1 >= 2 && n2 >= 2 {
					for m := 0; m <= 1; m++ {
						f := (&arena{}).window((2*n1 - 2) * (2*n2 - 2))
						expect("InterpPlane", simd.InterpPlane(f, x, x, true, n1, n2, m, c, buf), asm && n2 >= 4 && 2*n1-2-2*m >= 1, f)
					}
				}
			}
		}
	}
}
