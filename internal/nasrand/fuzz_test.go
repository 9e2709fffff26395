package nasrand

import "testing"

// FuzzSkipEquivalence: jumping by PowMod(Mult, n) must equal n sequential
// steps for fuzzed seeds and counts, and PowMod must stay a homomorphism.
func FuzzSkipEquivalence(f *testing.F) {
	f.Add(uint64(314159265), uint16(100))
	f.Add(uint64(1), uint16(1))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16) {
		n := uint64(nRaw % 512)
		a := New(seed)
		b := New(seed)
		a.NextWith(PowMod(Mult, n))
		for i := uint64(0); i < n; i++ {
			b.NextWith(Mult)
		}
		if a.x != b.x {
			t.Fatalf("jump by %d diverges for seed %d", n, seed)
		}
		lhs := PowMod(Mult, n+7)
		rhs := (PowMod(Mult, n) * PowMod(Mult, 7)) & (1<<46 - 1)
		if lhs != rhs {
			t.Fatalf("PowMod homomorphism broken at n=%d", n)
		}
	})
}
