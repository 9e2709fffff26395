package shape

import (
	"testing"
	"testing/quick"
)

func TestSize(t *testing.T) {
	cases := []struct {
		s    Shape
		want int
	}{
		{Of(), 1},
		{Of(0), 0},
		{Of(5), 5},
		{Of(3, 4), 12},
		{Of(2, 3, 4), 24},
		{Of(1, 1, 1, 1), 1},
		{Of(7, 0, 3), 0},
	}
	for _, c := range cases {
		if got := c.s.Size(); got != c.want {
			t.Errorf("Size(%v) = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestRank(t *testing.T) {
	if Of().Rank() != 0 || Of(2).Rank() != 1 || Of(2, 3, 4).Rank() != 3 {
		t.Fatal("Rank returned wrong values")
	}
}

func TestValid(t *testing.T) {
	if !Of(2, 3).Valid() || !Of().Valid() || !Of(0).Valid() {
		t.Error("valid shapes reported invalid")
	}
	if Of(2, -1).Valid() {
		t.Error("negative extent reported valid")
	}
}

func TestStrides(t *testing.T) {
	cases := []struct {
		s    Shape
		want []int
	}{
		{Of(5), []int{1}},
		{Of(3, 4), []int{4, 1}},
		{Of(2, 3, 4), []int{12, 4, 1}},
	}
	for _, c := range cases {
		got := c.s.Strides()
		if !Shape(got).Equal(Shape(c.want)) {
			t.Errorf("Strides(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestOffsetRowMajor(t *testing.T) {
	s := Of(2, 3, 4)
	// Row-major: last axis fastest.
	if s.Offset(Index{0, 0, 0}) != 0 {
		t.Error("origin not at offset 0")
	}
	if s.Offset(Index{0, 0, 1}) != 1 {
		t.Error("last axis not fastest")
	}
	if s.Offset(Index{0, 1, 0}) != 4 {
		t.Error("middle axis stride wrong")
	}
	if s.Offset(Index{1, 0, 0}) != 12 {
		t.Error("first axis stride wrong")
	}
	if s.Offset(Index{1, 2, 3}) != 23 {
		t.Error("last element not at Size()-1")
	}
}

func TestOffsetPanics(t *testing.T) {
	s := Of(2, 3)
	for _, idx := range []Index{{0}, {0, 3}, {-1, 0}, {2, 0}, {0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Offset(%v) on %v did not panic", idx, s)
				}
			}()
			s.Offset(idx)
		}()
	}
}

// unflatten converts an offset in [0, s.Size()) back to an index vector
// of s: the inverse Offset is checked against.
func unflatten(s Shape, off int) Index {
	idx := make(Index, len(s))
	for j := len(s) - 1; j >= 0; j-- {
		idx[j] = off % s[j]
		off /= s[j]
	}
	return idx
}

// Property: unflatten is the exact inverse of Offset over the whole space.
func TestOffsetUnflattenRoundTrip(t *testing.T) {
	shapes := []Shape{Of(1), Of(7), Of(3, 5), Of(2, 3, 4), Of(2, 2, 2, 2)}
	for _, s := range shapes {
		for off := 0; off < s.Size(); off++ {
			idx := unflatten(s, off)
			if got := s.Offset(idx); got != off {
				t.Fatalf("shape %v: Offset(unflatten(%d)) = %d", s, off, got)
			}
		}
	}
}

// Property-based round trip on random shapes via testing/quick.
func TestOffsetUnflattenQuick(t *testing.T) {
	f := func(dims [3]uint8, rawOff uint32) bool {
		s := Of(int(dims[0]%6)+1, int(dims[1]%6)+1, int(dims[2]%6)+1)
		off := int(rawOff) % s.Size()
		idx := unflatten(s, off)
		return s.Offset(idx) == off && s.contains(idx)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContains(t *testing.T) {
	s := Of(2, 3)
	if !s.contains(Index{0, 0}) || !s.contains(Index{1, 2}) {
		t.Error("in-bounds index reported out of bounds")
	}
	for _, idx := range []Index{{2, 0}, {0, 3}, {-1, 0}, {0}, {0, 0, 0}} {
		if s.contains(idx) {
			t.Errorf("contains(%v) on %v = true", idx, s)
		}
	}
}

func TestEqualClone(t *testing.T) {
	s := Of(2, 3, 4)
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal")
	}
	c[0] = 9
	if s.Equal(c) {
		t.Fatal("clone aliases original")
	}
	if s.Equal(Of(2, 3)) || s.Equal(Of(2, 3, 5)) {
		t.Fatal("Equal confused by different shapes")
	}
}

func TestString(t *testing.T) {
	if Of(2, 3, 4).String() != "[2,3,4]" {
		t.Errorf("Shape.String = %q", Of(2, 3, 4).String())
	}
	if Of().String() != "[]" {
		t.Errorf("empty Shape.String = %q", Of().String())
	}
	if (Index{1, 0}).String() != "[1,0]" {
		t.Errorf("Index.String = %q", Index{1, 0}.String())
	}
}

func TestVectorAlgebra(t *testing.T) {
	a := []int{6, 8, 10}
	b := []int{1, 2, 5}
	if got := Add(a, b); !Shape(got).Equal(Of(7, 10, 15)) {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(a, b); !Shape(got).Equal(Of(5, 6, 5)) {
		t.Errorf("Sub = %v", got)
	}
	if got := AddScalar(a, 1); !Shape(got).Equal(Of(7, 9, 11)) {
		t.Errorf("AddScalar = %v", got)
	}
	if got := MulScalar(a, 2); !Shape(got).Equal(Of(12, 16, 20)) {
		t.Errorf("MulScalar = %v", got)
	}
	if got := DivScalar(a, 2); !Shape(got).Equal(Of(3, 4, 5)) {
		t.Errorf("DivScalar = %v", got)
	}
}

func TestVectorAlgebraRankMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add with rank mismatch did not panic")
		}
	}()
	Add([]int{1, 2}, []int{1})
}

func TestReplicateZerosOnes(t *testing.T) {
	if got := Replicate(3, 7); !Shape(got).Equal(Of(7, 7, 7)) {
		t.Errorf("Replicate = %v", got)
	}
	if got := Zeros(2); !Shape(got).Equal(Of(0, 0)) {
		t.Errorf("Zeros = %v", got)
	}
	if got := Ones(2); !Shape(got).Equal(Of(1, 1)) {
		t.Errorf("Ones = %v", got)
	}
}

func TestComparisons(t *testing.T) {
	if !AllLessEq([]int{1, 3}, []int{2, 3}) {
		t.Error("AllLessEq false negative")
	}
	if AllLessEq([]int{3, 3}, []int{2, 3}) {
		t.Error("AllLessEq false positive")
	}
}

// Property: Sub(Add(a,b), b) == a for random vectors.
func TestAddSubQuick(t *testing.T) {
	f := func(av, bv [4]int16) bool {
		a := []int{int(av[0]), int(av[1]), int(av[2]), int(av[3])}
		b := []int{int(bv[0]), int(bv[1]), int(bv[2]), int(bv[3])}
		return Shape(Sub(Add(a, b), b)).Equal(Shape(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkOffset3D(b *testing.B) {
	s := Of(64, 64, 64)
	idx := Index{31, 17, 9}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Offset(idx)
	}
}

// contains reports whether idx is a valid in-bounds position of s: the
// oracle of the offset round-trip tests.
func (s Shape) contains(idx Index) bool {
	if len(idx) != len(s) {
		return false
	}
	for j, e := range s {
		if idx[j] < 0 || idx[j] >= e {
			return false
		}
	}
	return true
}
