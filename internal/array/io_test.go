package array

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/shape"
)

func TestWriteReadRoundTrip(t *testing.T) {
	a := New(shape.Of(3, 4, 5))
	for i := range a.Data() {
		a.Data()[i] = math.Sin(float64(i))
	}
	var buf bytes.Buffer
	n, err := a.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := int64(4 + 4 + 3*8 + 60*8)
	if n != wantBytes {
		t.Fatalf("wrote %d bytes, want %d", n, wantBytes)
	}
	b, err := ReadArray(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Equal(a) {
		t.Fatal("round trip changed the array")
	}
}

func TestRoundTripScalarAndEmpty(t *testing.T) {
	for _, a := range []*Array{Scalar(3.14), New(shape.Of(0)), New(shape.Of(2, 0, 3))} {
		var buf bytes.Buffer
		if _, err := a.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		b, err := ReadArray(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !b.Shape().Equal(a.Shape()) {
			t.Fatalf("shape %v round-tripped to %v", a.Shape(), b.Shape())
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": {1, 2, 3, 4, 5, 6, 7, 8},
		"truncated": func() []byte {
			var buf bytes.Buffer
			a := New(shape.Of(4, 4))
			a.WriteTo(&buf)
			return buf.Bytes()[:20]
		}(),
	}
	for name, data := range cases {
		if _, err := ReadArray(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// header serializes the magic, rank and extents of an array, then the
// given data bytes.
func header(data []byte, extents ...uint64) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, ioMagic)
	binary.Write(&buf, binary.LittleEndian, uint32(len(extents)))
	binary.Write(&buf, binary.LittleEndian, extents)
	return append(buf.Bytes(), data...)
}

func TestReadRejectsImplausibleHeader(t *testing.T) {
	eight := make([]byte, 8)
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"rank 65535", header(nil, make([]uint64, 0xFFFF)...), "rank"},
		// 2^60 elements: 2^63 bytes do not fit an int.
		{"2^20 cubed", header(eight[:4], 1<<20, 1<<20, 1<<20), "size"},
		// 2^64 elements: the product wraps to 0.
		{"65536^4", header(eight[:4], 1<<16, 1<<16, 1<<16, 1<<16), "size"},
		// No elements, but an extent beyond any int.
		{"0 × 2^63", header(nil, 0, 1<<63), "implausible"},
		// 8 GiB claimed, 8 bytes carried.
		{"truncated 8 GiB", header(eight, 1<<10, 1<<10, 1<<10), io.ErrUnexpectedEOF.Error()},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a, err := ReadArray(bytes.NewReader(c.data))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: ReadArray = %v, %v; want an error naming %q", c.name, a, err, c.want)
		}
		if c.want == io.ErrUnexpectedEOF.Error() && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("%s: error %v does not wrap io.ErrUnexpectedEOF", c.name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 16<<20 {
			t.Errorf("%s: allocated %d bytes reading %d", c.name, got, len(c.data))
		}
	}
}

// Property: serialization preserves every bit pattern, including negative
// zero, infinities and NaN payload-free NaNs.
func TestRoundTripBitPatternsQuick(t *testing.T) {
	f := func(vals [6]float64) bool {
		a := FromSlice(shape.Of(2, 3), vals[:])
		var buf bytes.Buffer
		if _, err := a.WriteTo(&buf); err != nil {
			return false
		}
		b, err := ReadArray(&buf)
		if err != nil {
			return false
		}
		for i := range vals {
			x, y := a.Data()[i], b.Data()[i]
			if math.Float64bits(x) != math.Float64bits(y) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	// Explicit specials.
	specials := FromSlice(shape.Of(4), []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.NaN()})
	var buf bytes.Buffer
	specials.WriteTo(&buf)
	back, err := ReadArray(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range specials.Data() {
		if math.Float64bits(specials.Data()[i]) != math.Float64bits(back.Data()[i]) {
			t.Fatalf("special value %d changed bits", i)
		}
	}
}
