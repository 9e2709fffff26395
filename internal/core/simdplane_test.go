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
		k.project(p[0], p[2], p[3], p[4], n, n, stencil.P)
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

// TestInterpolateHaloRowsBitIdentical holds interpolate's halo rows — m = 0,
// the fine frame interpolated from z's halo like any other point, which the
// pipelined way up computes — in the buffered and simd backends to the
// scalar rows, bit for bit (any NaN for a NaN): every coarse row length of
// the simd package's tests, both fine-plane parities, random values and
// ones laced with ±0, ±Inf, NaN and subnormals. Every operand and the line
// buffer sit inside canary cells the kernel must not write, at every
// 8-byte phase of a 32-byte vector, and every cell of the plane must be
// written. The simd backend runs with its primitive withheld ("fallback",
// the rows a declining primitive leaves to) and, where the host has AVX2,
// offered ("avx2").
func TestInterpolateHaloRowsBitIdentical(t *testing.T) {
	const canary = 0x7ff4_dead_beef_0bad // a signalling NaN no arithmetic produces
	const guard = 8
	var backs [][]float64
	// window is n cells between guard cells, offset cells into its backing.
	window := func(n, offset int, from []float64) []float64 {
		back := make([]float64, n+2*guard+offset)
		for i := range back {
			back[i] = math.Float64frombits(canary)
		}
		backs = append(backs, back)
		w := back[guard+offset : guard+offset+n : guard+offset+n]
		copy(w, from)
		return w
	}
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, 0x1p-1030, math.MaxFloat64}
	legs := []string{"fallback"}
	if simd.Available() {
		legs = append(legs, "avx2")
	}
	for _, leg := range legs {
		t.Run(leg, func(t *testing.T) {
			for _, cn2 := range []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 18, 34, 66, 130, 258} {
				for offset, cn1 := range []int{2, 3, 4, 5} {
					for _, special := range []bool{false, true} {
						rng := rand.New(rand.NewSource(int64(10*cn2 + offset)))
						draw := func(n int) []float64 {
							v := make([]float64, n)
							for i := range v {
								v[i] = rng.NormFloat64()
								if special && rng.Intn(4) == 0 {
									v[i] = odd[rng.Intn(len(odd))]
								}
							}
							return v
						}
						zl, zh := draw(cn1*cn2), draw(cn1*cn2)
						fpl := (2*cn1 - 2) * (2*cn2 - 2)
						for _, o3 := range []bool{false, true} {
							var want []float64
							for _, variant := range []string{wl.VariantScalar, wl.VariantBuffered, wl.VariantSIMD} {
								what := fmt.Sprintf("%d×%d coarse, odd plane %v, special %v, %s", cn1, cn2, o3, special, variant)
								backs = backs[:0]
								k := borrowKern(nil, variant, false, cn2, 0)
								k.vec = k.vec && leg == "avx2"
								if k.lined {
									k.u1 = window(cn2, offset, nil)
								}
								o := window(fpl, offset, nil)
								k.interpolate(o, window(len(zl), offset, zl), window(len(zh), offset, zh), o3, cn1, cn2, 0, stencil.Q)
								for b, back := range backs {
									for i, v := range back {
										inside := i >= guard+offset && i < len(back)-guard
										if !inside && math.Float64bits(v) != canary {
											t.Fatalf("%s: wrote guard cell %d of window %d", what, i, b)
										}
									}
								}
								for i, v := range o {
									if math.Float64bits(v) == canary {
										t.Fatalf("%s: cell %d of the plane not written", what, i)
									}
									if want != nil && math.Float64bits(v) != math.Float64bits(want[i]) && !(math.IsNaN(v) && math.IsNaN(want[i])) {
										t.Fatalf("%s: cell %d = %v (%#x), scalar rows %v (%#x)", what, i, v, math.Float64bits(v), want[i], math.Float64bits(want[i]))
									}
								}
								if want == nil {
									want = o
								}
							}
						}
					}
				}
			}
		})
	}
}
