package shape

import "testing"

// FuzzOffsetRoundTrip drives the linearization round-trip with fuzzed
// shapes and offsets (the seed corpus runs as part of the normal test
// suite; `go test -fuzz=FuzzOffsetRoundTrip ./internal/shape` explores
// further).
func FuzzOffsetRoundTrip(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(4), uint32(17))
	f.Add(uint8(1), uint8(1), uint8(1), uint32(0))
	f.Add(uint8(64), uint8(64), uint8(64), uint32(123456))
	f.Fuzz(func(t *testing.T, d0, d1, d2 uint8, off uint32) {
		s := Of(int(d0%64)+1, int(d1%64)+1, int(d2%64)+1)
		o := int(off) % s.Size()
		idx := unflatten(s, o)
		if !s.contains(idx) {
			t.Fatalf("unflatten(%d) = %v not contained in %v", o, idx, s)
		}
		if got := s.Offset(idx); got != o {
			t.Fatalf("Offset(unflatten(%d)) = %d", o, got)
		}
	})
}

// FuzzVectorAlgebra checks the ring identities of the vector helpers.
func FuzzVectorAlgebra(f *testing.F) {
	f.Add(int16(1), int16(2), int16(3), int16(4))
	f.Fuzz(func(t *testing.T, a0, a1, b0, b1 int16) {
		a := []int{int(a0), int(a1)}
		b := []int{int(b0), int(b1)}
		if got := Sub(Add(a, b), b); !Shape(got).Equal(Shape(a)) {
			t.Fatalf("Sub(Add(a,b),b) = %v, want %v", got, a)
		}
		if got := Add(a, Zeros(2)); !Shape(got).Equal(Shape(a)) {
			t.Fatalf("a + 0 = %v", got)
		}
		if got := MulScalar(a, 1); !Shape(got).Equal(Shape(a)) {
			t.Fatalf("a * 1 = %v", got)
		}
	})
}
