package withloop

import (
	"testing"

	"repro/internal/shape"
)

// FuzzGenarrayMatchesContains drives the WITH-loop engine with fuzzed
// generators and checks the genarray result against the generator's own
// membership predicate — the semantic definition from the paper's §2.
func FuzzGenarrayMatchesContains(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(5), uint8(5), uint8(1), uint8(1), false)
	f.Add(uint8(1), uint8(2), uint8(6), uint8(7), uint8(2), uint8(3), true)
	f.Fuzz(func(t *testing.T, l0, l1, u0, u1, s0, s1 uint8, useStep bool) {
		shp := shape.Of(7, 8)
		lower := []int{int(l0 % 7), int(l1 % 8)}
		upper := []int{
			lower[0] + int(u0)%(8-lower[0]),
			lower[1] + int(u1)%(9-lower[1]),
		}
		g := Gen(lower, upper)
		if useStep {
			g = g.WithStep([]int{int(s0%3) + 1, int(s1%3) + 1})
		}
		e := Default()
		e.SeqThreshold = 0
		val := func(iv shape.Index) float64 { return float64(iv[0]*100+iv[1]) + 0.5 }
		a := e.Genarray(shp, g, val)
		iv := make(shape.Index, 2)
		for i := 0; i < 7; i++ {
			for j := 0; j < 8; j++ {
				iv[0], iv[1] = i, j
				want := 0.0
				if g.contains(iv) {
					want = val(iv)
				}
				if got := a.At(iv); got != want {
					t.Fatalf("generator %v: element %v = %v, want %v", g, iv, got, want)
				}
			}
		}
		// Count consistency.
		sum := e.Fold(shp, g, func(x, y float64) float64 { return x + y }, 0,
			func(shape.Index) float64 { return 1 })
		if int(sum) != g.Count() {
			t.Fatalf("generator %v: fold-count %v != Count %d", g, sum, g.Count())
		}
	})
}
