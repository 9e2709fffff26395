package mpinet

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"testing"
)

// encodeFrame marshals one message into a fresh wire frame.
func encodeFrame(src int, tag int, data []float64) []byte {
	return frameBytes(buildFrame(make([]float64, frameWords(len(data))), src, tag, data))
}

// readFrame is recvFrame with a fresh payload buffer.
func readFrame(r io.Reader, hdr []byte, from int) (frameHeader, []float64, error) {
	return recvFrame(r, hdr, from, nil)
}

// goldenFrame is rank 3's message with tag 7 carrying {1.5, −0.0}, as it has
// travelled since protocol version 1: any change to these bytes is a wire
// format change and needs a ProtocolVersion bump.
const goldenFrame = "4d46474d" + // magic "MGFM", little-endian
	"03000000" + // source rank
	"07000000" + // tag
	"02000000" + // payload length in floats
	"000000000000f83f" + // 1.5
	"0000000000000080" + // −0.0
	"9a962781" // CRC-32 (IEEE) of everything above (zlib.crc32 agrees)

func TestFrameGoldenBytes(t *testing.T) {
	negZero := math.Copysign(0, -1)
	got := encodeFrame(3, 7, []float64{1.5, negZero})
	if hex.EncodeToString(got) != goldenFrame {
		t.Fatalf("encoded frame\n got %x\nwant %s", got, goldenFrame)
	}
	h, data, err := readFrame(bytes.NewReader(got), make([]byte, headerLen), 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.src != 3 || h.tag != 7 || len(data) != 2 || data[0] != 1.5 ||
		math.Float64bits(data[1]) != math.Float64bits(negZero) {
		t.Fatalf("decoded header %+v payload %v", h, data)
	}
}

// FuzzFrame feeds the frame reader hostile bytes and round-trips honest
// ones. Whatever arrives, readFrame returns a payload or one of the two
// typed errors and never panics; a frame it accepts is exactly the
// canonical encoding of what it decoded; and an encoded message, with any
// payload bit patterns (NaNs included), decodes to itself, while the same
// frame with one byte flipped is rejected.
func FuzzFrame(f *testing.F) {
	golden, _ := hex.DecodeString(goldenFrame)
	f.Add(golden, 3, 7, uint16(0))
	f.Add(encodeFrame(0, tagAbort, []float64{2}), 0, tagAbort, uint16(5))
	f.Add([]byte("MGFM"), 1, -1, uint16(1))
	huge := append([]byte(nil), golden[:headerLen]...)
	binary.LittleEndian.PutUint32(huge[12:], maxFrameFloats+1)
	f.Add(huge, 3, 0, uint16(9))

	f.Fuzz(func(t *testing.T, wire []byte, src, tag int, flip uint16) {
		hdr := make([]byte, headerLen)
		src &= 0xffff // rank and tag travel as 32-bit fields
		tag = int(int32(tag))

		// A length within maxFrameFloats is allocated before the short read
		// fails — bounded by design, but not worth a gigabyte per exec here.
		if len(wire) >= headerLen {
			if n := decodeHeader(wire).count; n > 1<<16 && n <= maxFrameFloats {
				t.Skip("plausible length far beyond the bytes delivered")
			}
		}
		h, data, err := readFrame(bytes.NewReader(wire), hdr, src)
		var fe *FrameError
		var ce *ChecksumError
		switch {
		case err == nil:
			n := headerLen + 8*len(data) + checksumLen
			if h.src != src || n > len(wire) || !bytes.Equal(encodeFrame(h.src, h.tag, data), wire[:n]) {
				t.Fatalf("accepted a non-canonical frame: header %+v, %d floats, wire %x", h, len(data), wire)
			}
		case !errors.As(err, &fe) && !errors.As(err, &ce):
			t.Fatalf("untyped error %T: %v", err, err)
		}

		// The fuzzed bytes, reinterpreted as a payload.
		payload := make([]float64, len(wire)/8)
		for i := range payload {
			payload[i] = math.Float64frombits(binary.LittleEndian.Uint64(wire[8*i:]))
		}
		frame := encodeFrame(src, tag, payload)
		h, data, err = readFrame(bytes.NewReader(frame), hdr, src)
		if err != nil || h.src != src || h.tag != tag || len(data) != len(payload) {
			t.Fatalf("round trip of (%d, %d, %d floats): header %+v, %d floats, err %v",
				src, tag, len(payload), h, len(data), err)
		}
		for i := range data {
			if math.Float64bits(data[i]) != math.Float64bits(payload[i]) {
				t.Fatalf("float %d: %016x came back as %016x", i,
					math.Float64bits(payload[i]), math.Float64bits(data[i]))
			}
		}
		frame[int(flip)%len(frame)] ^= 0x40
		if _, _, err := readFrame(bytes.NewReader(frame), hdr, src); err == nil {
			t.Fatalf("a frame with byte %d flipped was accepted", int(flip)%len(frame))
		}
	})
}
