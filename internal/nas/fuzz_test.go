package nas

import (
	"slices"
	"testing"

	"repro/internal/mgtest"
	"repro/internal/nasrand"
)

// FuzzZran3Scan holds Zran3Scan to the brute-force reference
// (mgtest.Zran3Extremes) over seeds, even grid sizes n = 2 … 64 and plane
// runs lo … hi, empty and one-plane runs included. The seed corpus covers
// the grids of at most 20 points — n = 2, and one plane at n = 4 — where
// the two lists share values, so the head of small lies above the head
// of large and no value may be skipped; seed 0, whose field is all zeros;
// and seed 2^45, whose field is all one half, so every comparison ties.
func FuzzZran3Scan(f *testing.F) {
	for _, c := range []struct {
		seed      uint64
		n, lo, hi uint8 // n = 2·(n+1); lo and hi wrap into the grid
	}{
		{nasrand.DefaultSeed, 0, 0, 1},  // n = 2, both planes
		{nasrand.DefaultSeed, 0, 1, 0},  // n = 2, plane 2
		{nasrand.DefaultSeed, 1, 2, 0},  // n = 4, plane 3
		{nasrand.DefaultSeed, 1, 0, 4},  // n = 4, every plane
		{nasrand.DefaultSeed, 15, 5, 0}, // n = 32, an empty run
		{nasrand.DefaultSeed, 15, 0, 32},
		{271828183, 31, 20, 9}, // n = 64, planes 21 … 29
		{0, 3, 0, 8},
		{1 << 45, 3, 2, 3},
		{1, 7, 6, 0},
	} {
		f.Add(c.seed, c.n, c.lo, c.hi)
	}
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, loRaw, hiRaw uint8) {
		n := 2 * (int(nRaw)%32 + 1)
		lo := 1 + int(loRaw)%n
		hi := lo - 1 + int(hiRaw)%(n-lo+2) // lo−1 (none) … n
		got := Zran3Scan(n, seed, lo, hi)
		large, small := mgtest.Zran3Extremes(n, seed, lo, hi, Zran3Charges)
		for _, l := range []struct {
			name string
			got  []Extreme
			want []mgtest.FieldPoint
		}{{"large", got.Large, large}, {"small", got.Small, small}} {
			var g []mgtest.FieldPoint
			for _, c := range inScanOrder(l.got) {
				g = append(g, mgtest.FieldPoint(c))
			}
			if !slices.Equal(g, l.want) {
				t.Fatalf("seed %d, n = %d, planes %d … %d: %s keeps %v, want %v", seed, n, lo, hi, l.name, g, l.want)
			}
		}
	})
}
