package nasrand

import (
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

func TestFillMatchesNext(t *testing.T) {
	a := New(DefaultSeed)
	b := New(DefaultSeed)
	buf := make([]float64, 257)
	a.Fill(buf)
	for i, v := range buf {
		if w := b.NextWith(Mult); v != w {
			t.Fatalf("Fill[%d] = %v, NextWith(Mult) = %v", i, v, w)
		}
	}
	if a.State() != b.State() {
		t.Fatal("Fill and NextWith(Mult) leave different states")
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
		if a.State() != b.State() {
			t.Fatalf("jump by %d: state %d != NextWith(Mult)^%d state %d", n, a.State(), n, b.State())
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
			rowStart := New(split.State())
			buf := make([]float64, rowLen)
			rowStart.Fill(buf)
			for _, v := range buf {
				if v != seq.NextWith(Mult) {
					return false
				}
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
	if s := New(1<<63 | 5).State(); s != 5 {
		t.Fatalf("New did not mask: %d", s)
	}
	if s := New(1<<50 | 3).State(); s != (1<<50|3)&(1<<46-1) {
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

func BenchmarkFill1K(b *testing.B) {
	r := New(DefaultSeed)
	buf := make([]float64, 1024)
	b.SetBytes(1024 * 8)
	for i := 0; i < b.N; i++ {
		r.Fill(buf)
	}
}
