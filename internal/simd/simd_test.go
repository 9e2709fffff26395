package simd

import (
	"math"
	"math/rand"
	"testing"
)

// withAsm runs f under both dispatch paths (when AVX2 is available) or
// just the fallback (when not), so the suite is meaningful on every host.
func withAsm(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	saved := useAsm
	defer func() { useAsm = saved }()
	useAsm = false
	t.Run("fallback", f)
	if saved {
		useAsm = true
		t.Run("avx2", f)
	}
}

func randRow(rng *rand.Rand, n int) []float64 {
	r := make([]float64, n)
	for i := range r {
		r[i] = rng.NormFloat64()
	}
	return r
}

// refStencil is an independent statement of the canonical combine tree.
func refStencil(x, u1, u2 []float64, k int, c *[4]float64) float64 {
	s1 := (x[k-1] + x[k+1]) + u1[k]
	s2 := (u2[k] + u1[k-1]) + u1[k+1]
	s3 := u2[k-1] + u2[k+1]
	return ((c[0]*x[k] + c[1]*s1) + c[2]*s2) + c[3]*s3
}

// TestRowsBitIdentical checks every primitive against an element-wise
// reference, under both dispatch paths, across row lengths covering the
// empty, tail-only and vector+tail cases.
func TestRowsBitIdentical(t *testing.T) {
	c := [4]float64{-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 34, 130, 258} {
		rng := rand.New(rand.NewSource(int64(n) + 1))
		a, b, d, e := randRow(rng, n), randRow(rng, n), randRow(rng, n), randRow(rng, n)
		v, x, u1, u2 := randRow(rng, n), randRow(rng, n), randRow(rng, n), randRow(rng, n)
		withAsm(t, func(t *testing.T) {
			dst := make([]float64, n)
			Sum2(dst, a, b)
			for i := range dst {
				if want := a[i] + b[i]; dst[i] != want {
					t.Fatalf("Sum2 n=%d [%d]: got %x want %x", n, i, dst[i], want)
				}
			}
			Sum4(dst, a, b, d, e)
			for i := range dst {
				if want := ((a[i] + b[i]) + d[i]) + e[i]; dst[i] != want {
					t.Fatalf("Sum4 n=%d [%d]: got %x want %x", n, i, dst[i], want)
				}
			}
			if n < 2 {
				return
			}
			o := make([]float64, n)
			SubRelaxRow(o, v, x, u1, u2, &c)
			for k := 1; k < n-1; k++ {
				if want := v[k] - refStencil(x, u1, u2, k, &c); o[k] != want {
					t.Fatalf("SubRelaxRow n=%d [%d]: got %x want %x", n, k, o[k], want)
				}
			}
			AddRelaxRow(o, v, x, u1, u2, &c)
			for k := 1; k < n-1; k++ {
				if want := v[k] + refStencil(x, u1, u2, k, &c); o[k] != want {
					t.Fatalf("AddRelaxRow n=%d [%d]: got %x want %x", n, k, o[k], want)
				}
			}
			AddRelaxPlusRow(o, e, v, x, u1, u2, &c)
			for k := 1; k < n-1; k++ {
				if want := e[k] + (v[k] + refStencil(x, u1, u2, k, &c)); o[k] != want {
					t.Fatalf("AddRelaxPlusRow n=%d [%d]: got %x want %x", n, k, o[k], want)
				}
			}
		})
	}
}

// TestAsmMatchesFallback cross-checks the two dispatch paths against each
// other on the same inputs — the direct statement of the bit-identity
// contract. Skipped (trivially passing) when AVX2 is unavailable.
func TestAsmMatchesFallback(t *testing.T) {
	if !useAsm {
		t.Skip("AVX2 path not active on this host")
	}
	saved := useAsm
	defer func() { useAsm = saved }()
	c := [4]float64{0.5, 0.25, 0.125, 0.0625}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{6, 18, 66, 258} {
		v, x, u1, u2 := randRow(rng, n), randRow(rng, n), randRow(rng, n), randRow(rng, n)
		asm, ref := make([]float64, n), make([]float64, n)
		useAsm = true
		SubRelaxRow(asm, v, x, u1, u2, &c)
		useAsm = false
		SubRelaxRow(ref, v, x, u1, u2, &c)
		for k := 1; k < n-1; k++ {
			if asm[k] != ref[k] {
				t.Fatalf("n=%d [%d]: asm %x fallback %x", n, k, asm[k], ref[k])
			}
		}
	}
}

// TestSpecialValues checks the primitives propagate non-finite values the
// way the Go expressions do.
func TestSpecialValues(t *testing.T) {
	inf := math.Inf(1)
	a := []float64{1, inf, math.NaN(), -2, 3, 4, 5, 6}
	b := []float64{2, -inf, 1, 7, 8, 9, 10, 11}
	withAsm(t, func(t *testing.T) {
		dst := make([]float64, len(a))
		Sum2(dst, a, b)
		if dst[0] != 3 || !math.IsNaN(dst[1]) || !math.IsNaN(dst[2]) {
			t.Fatalf("Sum2 special values: got %v", dst[:3])
		}
	})
}

// sameBits is the bit-identity comparison of the row tests: equal bit
// patterns, or both NaN (the payload of a NaN born from two NaN operands
// depends on operand order, which the Go compiler is free to choose).
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// specialRow draws from the values whose handling differs between a
// careless vector kernel and the scalar expression: NaN, ±Inf, ±0 and
// magnitudes that overflow or cancel.
func specialRow(rng *rand.Rand, n int) []float64 {
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		1, -1, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64}
	r := make([]float64, n)
	for i := range r {
		r[i] = vals[rng.Intn(len(vals))]
	}
	return r
}

// guarded returns a length-n window at the given offset inside a larger
// sentinel-filled slice (so windows start at every 8-byte phase of a
// 32-byte vector) and a check that nothing outside [lo, hi) of the window
// was written.
func guarded(t *testing.T, n, offset, lo, hi int) ([]float64, func(what string)) {
	t.Helper()
	const sentinel = -12345.5
	backing := make([]float64, n+offset+5)
	for i := range backing {
		backing[i] = sentinel
	}
	w := backing[offset : offset+n : offset+n]
	return w, func(what string) {
		t.Helper()
		for i, v := range backing {
			if in := i - offset; in >= lo && in < hi {
				continue
			}
			if v != sentinel {
				t.Fatalf("%s n=%d offset=%d: wrote outside the interior at backing[%d]", what, n, offset, i)
			}
		}
	}
}

// TestInterpProjectRowsBitIdentical checks InterpRow and ProjectRow
// against an element-wise statement of their formulas, under both
// dispatch paths, for every row length 1..67 (tail-only, vector-only and
// vector+tail), at every alignment phase, on random and on special
// values, and checks they never write outside the row interior.
func TestInterpProjectRowsBitIdentical(t *testing.T) {
	c := [4]float64{0.5, 0.25, 0.125, 0.0625}
	fills := map[string]func(*rand.Rand, int) []float64{"random": randRow, "special": specialRow}
	for name, fill := range fills {
		for n := 1; n <= 67; n++ {
			for offset := 0; offset < 4; offset++ {
				rng := rand.New(rand.NewSource(int64(100*n + offset)))
				// InterpRow: coarse buffer of n, fine row of 2n-2.
				b := fill(rng, n+offset)[offset:]
				// ProjectRow: coarse row of n, fine rows of 2n-2.
				nf := max(2*n-2, 0)
				x, u1, u2 := fill(rng, nf+offset)[offset:], fill(rng, nf+offset)[offset:], fill(rng, nf+offset)[offset:]
				withAsm(t, func(t *testing.T) {
					o, check := guarded(t, nf, offset, 1, nf-1)
					InterpRow(o, b, c[1], c[2])
					check(name + " InterpRow")
					for f := 1; f < nf-1; f++ {
						want := c[1] * b[f/2]
						if f&1 == 1 {
							want = c[2] * (b[f/2] + b[f/2+1])
						}
						if !sameBits(o[f], want) {
							t.Fatalf("%s InterpRow n=%d offset=%d [%d]: got %x want %x", name, n, offset, f, o[f], want)
						}
					}
					o, check = guarded(t, n, offset, 1, n-1)
					ProjectRow(o, x, u1, u2, &c)
					check(name + " ProjectRow")
					for j := 1; j < n-1; j++ {
						if want := refStencil(x, u1, u2, 2*j, &c); !sameBits(o[j], want) {
							t.Fatalf("%s ProjectRow n=%d offset=%d [%d]: got %x want %x", name, n, offset, j, o[j], want)
						}
					}
				})
			}
		}
	}
}

func BenchmarkSum4(bm *testing.B) {
	n := 258
	rng := rand.New(rand.NewSource(1))
	a, b, c, d := randRow(rng, n), randRow(rng, n), randRow(rng, n), randRow(rng, n)
	dst := make([]float64, n)
	bm.SetBytes(int64(5 * 8 * n))
	for i := 0; i < bm.N; i++ {
		Sum4(dst, a, b, c, d)
	}
}

func BenchmarkSubRelaxRow(bm *testing.B) {
	n := 258
	c := [4]float64{-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0}
	rng := rand.New(rand.NewSource(2))
	v, x, u1, u2 := randRow(rng, n), randRow(rng, n), randRow(rng, n), randRow(rng, n)
	o := make([]float64, n)
	bm.SetBytes(int64(5 * 8 * n))
	for i := 0; i < bm.N; i++ {
		SubRelaxRow(o, v, x, u1, u2, &c)
	}
}

func BenchmarkInterpRow(bm *testing.B) {
	n := 130
	rng := rand.New(rand.NewSource(3))
	b := randRow(rng, n)
	o := make([]float64, 2*n-2)
	bm.SetBytes(int64(8 * (3*n - 2)))
	for i := 0; i < bm.N; i++ {
		InterpRow(o, b, 0.5, 0.25)
	}
}

func BenchmarkProjectRow(bm *testing.B) {
	n := 258
	c := [4]float64{0.5, 0.25, 0.125, 0.0625}
	rng := rand.New(rand.NewSource(4))
	x, u1, u2 := randRow(rng, n), randRow(rng, n), randRow(rng, n)
	o := make([]float64, n/2+1)
	bm.SetBytes(int64(8 * (3*n + n/2)))
	for i := 0; i < bm.N; i++ {
		ProjectRow(o, x, u1, u2, &c)
	}
}
