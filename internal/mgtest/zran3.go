package mgtest

import (
	"cmp"
	"slices"
)

// FieldPoint is one value of zran3's random field and its flat offset in
// the extended (n+2)³ grid.
type FieldPoint struct {
	Val float64
	Pos int
}

// Zran3Extremes is the brute-force reference for zran3's scan of interior
// planes lo … hi (1-based; none when hi < lo) of the seed's field on an
// n³ grid: it draws every value of those planes from the NPB generator's
// definition — x_{k+1} = 5^13·x_k mod 2^46, value x_k·2^-46, value
// ((i3−1)·n + i2−1)·n + i1 of the stream at interior point (i3, i2, i1) —
// and keeps the keep largest and the keep smallest, the first occurrence
// in scan order winning among equal values. Both lists come back in scan
// order (ascending Pos).
func Zran3Extremes(n int, seed uint64, lo, hi, keep int) (large, small []FieldPoint) {
	const mask = 1<<46 - 1
	x := seed & mask
	for range (lo - 1) * n * n {
		x = x * 1220703125 & mask
	}
	m := n + 2
	var all []FieldPoint
	for i3 := lo; i3 <= hi; i3++ {
		for i2 := 1; i2 <= n; i2++ {
			for i1 := 1; i1 <= n; i1++ {
				x = x * 1220703125 & mask
				all = append(all, FieldPoint{float64(x) / (1 << 46), (i3*m+i2)*m + i1})
			}
		}
	}
	// A stable sort keeps equal values in scan order, so the first
	// occurrences come first.
	firsts := func(order func(a, b FieldPoint) int) []FieldPoint {
		sorted := slices.Clone(all)
		slices.SortStableFunc(sorted, order)
		sorted = sorted[:min(keep, len(sorted))]
		slices.SortFunc(sorted, func(a, b FieldPoint) int { return a.Pos - b.Pos })
		return sorted
	}
	large = firsts(func(a, b FieldPoint) int { return cmp.Compare(b.Val, a.Val) })
	small = firsts(func(a, b FieldPoint) int { return cmp.Compare(a.Val, b.Val) })
	return large, small
}
