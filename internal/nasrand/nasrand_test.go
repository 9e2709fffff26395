package nasrand

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestFirstValuesMatchRecurrence(t *testing.T) {
	r := New(DefaultSeed)
	x := DefaultSeed
	for i := 0; i < 100; i++ {
		x = (x * Mult) & (1<<46 - 1)
		want := float64(x) / (1 << 46)
		if got := r.NextWith(Mult); got != want {
			t.Fatalf("value %d = %v, want %v", i, got, want)
		}
	}
}

func TestValuesInOpenUnitInterval(t *testing.T) {
	r := New(DefaultSeed)
	for i := 0; i < 10000; i++ {
		v := r.NextWith(Mult)
		if v <= 0 || v >= 1 {
			t.Fatalf("value %d = %v outside (0,1)", i, v)
		}
	}
}

func TestMultIs5To13(t *testing.T) {
	m := uint64(1)
	for i := 0; i < 13; i++ {
		m *= 5
	}
	if m != Mult {
		t.Fatalf("Mult = %d, want 5^13 = %d", Mult, m)
	}
}

// TestWalkMatchesNext: a walk with an empty band visits every value of
// the stream in order, at its index, and leaves the stream where as many
// NextWith(Mult) calls leave it — for counts on and off the four-stream
// blocks.
func TestWalkMatchesNext(t *testing.T) {
	for _, count := range []int{0, 1, 3, 4, 5, 8, 257} {
		a := New(DefaultSeed)
		b := New(DefaultSeed)
		seen := 0
		a.Walk(count, 1, 0, func(i int, v float64) (float64, float64) {
			if i != seen {
				t.Fatalf("count %d: visit %d has index %d", count, seen, i)
			}
			if w := b.NextWith(Mult); v != w {
				t.Fatalf("count %d: Walk value %d = %v, NextWith(Mult) = %v", count, i, v, w)
			}
			seen++
			return 1, 0
		})
		if seen != count || a.x != b.x {
			t.Fatalf("count %d: %d visits, states %d and %d", count, seen, a.x, b.x)
		}
	}
}

// TestWalkSkipsBand: the walk visits exactly the values outside the band
// visit last returned — bounds that are stream values themselves
// included, as skipped — and switches bands from the value after the
// visit, inside a four-stream block too.
func TestWalkSkipsBand(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const count = 203
	ref := New(271828183)
	var field []float64
	for range count {
		field = append(field, ref.NextWith(Mult))
	}
	// Bands between two stream values (sometimes inverted), between two
	// arbitrary floats, or holding every value.
	band := func() [2]float64 {
		switch rng.Intn(4) {
		case 0:
			return [2]float64{rng.Float64(), rng.Float64()}
		case 1:
			return [2]float64{0, 1}
		default:
			return [2]float64{field[rng.Intn(count)], field[rng.Intn(count)]}
		}
	}
	for trial := range 300 {
		// The reference pass: which values a band holds, and the band
		// each visit returns.
		first := band()
		var want []int
		var next [][2]float64
		cur := first
		for i, v := range field {
			if v < cur[0] || v > cur[1] {
				want = append(want, i)
				if rng.Intn(3) == 0 {
					cur = band()
				}
				next = append(next, cur)
			}
		}
		var got []int
		r := New(271828183)
		r.Walk(count, first[0], first[1], func(i int, v float64) (float64, float64) {
			if v != field[i] || len(got) == len(next) {
				t.Fatalf("trial %d: visit %d of value %v at index %d, stream value %v", trial, len(got), v, i, field[i])
			}
			got = append(got, i)
			b := next[len(got)-1]
			return b[0], b[1]
		})
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: visited %v, want %v", trial, got, want)
		}
		if r.x != ref.x {
			t.Fatalf("trial %d: the walk ends at state %d, the stream at %d", trial, r.x, ref.x)
		}
	}
}

func TestSkipMatchesNext(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 7, 100, 12345} {
		a := New(DefaultSeed)
		b := New(DefaultSeed)
		a.NextWith(PowMod(Mult, n))
		for i := uint64(0); i < n; i++ {
			b.NextWith(Mult)
		}
		if a.x != b.x {
			t.Fatalf("jump by %d: state %d != NextWith(Mult)^%d state %d", n, a.x, n, b.x)
		}
	}
}

func TestPowModBasics(t *testing.T) {
	if PowMod(Mult, 0) != 1 {
		t.Error("a^0 != 1")
	}
	if PowMod(Mult, 1) != Mult {
		t.Error("a^1 != a")
	}
	if got, want := PowMod(Mult, 2), (Mult*Mult)&(1<<46-1); got != want {
		t.Errorf("a^2 = %d, want %d", got, want)
	}
}

// Property: PowMod is a homomorphism — a^(m+n) == a^m · a^n mod 2^46.
func TestPowModHomomorphismQuick(t *testing.T) {
	f := func(m, n uint16) bool {
		lhs := PowMod(Mult, uint64(m)+uint64(n))
		rhs := (PowMod(Mult, uint64(m)) * PowMod(Mult, uint64(n))) & (1<<46 - 1)
		return lhs == rhs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: two streams that split at a power offset interleave exactly —
// the structure zran3 relies on for per-row seeds.
func TestStreamSplittingQuick(t *testing.T) {
	f := func(rows uint8, rowLenRaw uint8) bool {
		rowLen := uint64(rowLenRaw%32) + 1
		aRow := PowMod(Mult, rowLen)
		seq := New(DefaultSeed)
		split := New(DefaultSeed)
		for row := 0; row < int(rows%16)+1; row++ {
			ok := true
			New(split.x).Walk(int(rowLen), 1, 0, func(_ int, v float64) (float64, float64) {
				ok = ok && v == seq.NextWith(Mult)
				return 1, 0
			})
			if !ok {
				return false
			}
			split.NextWith(aRow) // jump the split stream one row ahead
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSetStateMasks(t *testing.T) {
	if s := New(1<<63 | 5).x; s != 5 {
		t.Fatalf("New did not mask: %d", s)
	}
	if s := New(1<<50 | 3).x; s != (1<<50|3)&(1<<46-1) {
		t.Fatalf("New did not mask: %d", s)
	}
}

func TestMeanIsApproximatelyHalf(t *testing.T) {
	r := New(DefaultSeed)
	const n = 1 << 16
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.NextWith(Mult)
	}
	mean := sum / n
	if mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean of %d values = %v, want ≈0.5", n, mean)
	}
}

func BenchmarkNext(b *testing.B) {
	r := New(DefaultSeed)
	var s float64
	for i := 0; i < b.N; i++ {
		s += r.NextWith(Mult)
	}
	_ = s
}

// BenchmarkWalk1K walks 1024 values past a band that holds all but the
// smallest and largest few, as zran3's scan does once its lists fill.
func BenchmarkWalk1K(b *testing.B) {
	r := New(DefaultSeed)
	visits := 0
	for i := 0; i < b.N; i++ {
		r.Walk(1024, 0.001, 0.999, func(int, float64) (float64, float64) {
			visits++
			return 0.001, 0.999
		})
	}
	_ = visits
}
