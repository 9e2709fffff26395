package core

import (
	"fmt"
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
		k.interpolate(p[0], nil, p[2], p[3], true, cn, cn, 1, stencil.Q)
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
