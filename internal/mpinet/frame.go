package mpinet

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"

	"repro/internal/mempool"
	"repro/internal/mpi"
)

// The wire format. Every message travels as one length-prefixed binary
// frame, little-endian throughout:
//
//	offset  size  field
//	0       4     magic 0x4d47464d ("MGFM")
//	4       4     source rank (uint32)
//	8       4     tag (int32)
//	12      4     payload length, in float64 values (uint32)
//	16      8·n   payload, little-endian IEEE-754 float64
//	16+8·n  4     CRC-32 (IEEE) over bytes [0, 16+8·n)
//
// The checksum covers header and payload, so a desynchronized stream is
// caught either by the magic (wrong framing) or the CRC (right framing,
// wrong bytes). float64 values round-trip through math.Float64bits, so a
// TCP run is bit-identical to an in-process run — the property the
// differential transport test pins.
const (
	// ProtocolVersion is carried in every handshake; both sides must
	// match exactly.
	ProtocolVersion uint16 = 1

	frameMagic uint32 = 0x4d47464d // "MGFM"
	helloMagic uint32 = 0x4d47484c // "MGHL"

	headerLen     = 16
	checksumLen   = 4
	frameOverhead = headerLen + checksumLen

	// maxFrameFloats bounds a single frame's payload (1 GiB of floats).
	// The solver's largest messages are whole halo planes and the
	// allgather of a coarse level's share, a few MB even at class C;
	// the bound leaves room far above those, so anything bigger is a
	// corrupt length field, and rejecting it keeps a desynchronized
	// stream from demanding absurd allocations.
	maxFrameFloats = 1 << 27

	// tagAbort is the transport-internal control tag that relays a
	// world abort: its one-float payload names the rank known dead.
	// Application tags are conventionally small non-negative ints and
	// Comm's internal collectives use small negatives, so the extreme
	// values cannot collide.
	tagAbort = math.MinInt32
	// tagGoodbye announces a clean departure (Close after a completed
	// solve): the EOF that follows on this connection is not a death.
	// Ranks finish at different moments, so without it the first rank
	// to exit would be reported dead by every survivor.
	tagGoodbye = math.MinInt32 + 1
)

// A frame is built in a []float64 of frameWords(n) values — two header
// words, the payload, one word whose first four bytes are the checksum — so
// the payload is aligned and moves with one copy, and frames and received
// payloads recycle through one pool, keyed by that one length.
func frameWords(n int) int { return n + overheadWords }

const overheadWords = (frameOverhead + 7) / 8

// frameBytes is the wire image of the frame built in buf.
func frameBytes(buf []float64) []byte {
	return wordBytes(buf)[:frameOverhead+8*(len(buf)-overheadWords)]
}

// wordBytes views w's memory as bytes.
func wordBytes(w []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), 8*len(w))
}

// hostLE reports that a float64 in memory already is its wire image, so a
// payload moves as one bulk copy; any other host also runs wireOrder.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wireOrder converts p in place between host and wire byte order, value
// by value — the portable path, and its own inverse.
func wireOrder(p []float64) {
	b := wordBytes(p)
	for i, v := range p {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
}

// buildFrame marshals one message into buf (frameWords(len(data)) values,
// usually recycled) and returns buf.
func buildFrame(buf []float64, src, tag int, data []float64) []float64 {
	b := frameBytes(buf)
	binary.LittleEndian.PutUint32(b[0:], frameMagic)
	binary.LittleEndian.PutUint32(b[4:], uint32(src))
	binary.LittleEndian.PutUint32(b[8:], uint32(int32(tag)))
	binary.LittleEndian.PutUint32(b[12:], uint32(len(data)))
	payload := buf[headerLen/8:][:len(data)]
	copy(payload, data)
	if !hostLE {
		wireOrder(payload)
	}
	sum := crc32.ChecksumIEEE(b[:len(b)-checksumLen])
	binary.LittleEndian.PutUint32(b[len(b)-checksumLen:], sum)
	return buf
}

// frameHeader is the decoded fixed-size prefix of a frame.
type frameHeader struct {
	magic uint32
	src   int
	tag   int
	count int
}

func decodeHeader(b []byte) frameHeader {
	return frameHeader{
		magic: binary.LittleEndian.Uint32(b[0:]),
		src:   int(binary.LittleEndian.Uint32(b[4:])),
		tag:   int(int32(binary.LittleEndian.Uint32(b[8:]))),
		count: int(binary.LittleEndian.Uint32(b[12:])),
	}
}

// recvFrame reads and validates one frame sent by rank `from`: framing
// (magic), provenance (the source field must name the connection's peer), a
// plausible length — checked before the payload buffer is taken — and the
// checksum. The payload is read straight into a buffer from free (nil: a
// fresh one), the checksum into the value after it. hdr is headerLen bytes
// of scratch. Whatever the bytes, the outcome is a payload or a typed error
// (*FrameError, *ChecksumError).
func recvFrame(r io.Reader, hdr []byte, from int, free *mempool.Pool) (frameHeader, []float64, error) {
	if _, err := io.ReadFull(r, hdr); err != nil {
		return frameHeader{}, nil, &FrameError{Peer: from, Reason: "torn frame header", Err: err}
	}
	h := decodeHeader(hdr)
	switch {
	case h.magic != frameMagic:
		return h, nil, &FrameError{Peer: from, Reason: fmt.Sprintf("bad magic %08x (stream desynchronized)", h.magic)}
	case h.src != from:
		return h, nil, &FrameError{Peer: from, Reason: fmt.Sprintf("frame claims source rank %d on the rank-%d connection", h.src, from)}
	case h.count < 0 || h.count > maxFrameFloats:
		return h, nil, &FrameError{Peer: from, Reason: fmt.Sprintf("implausible payload length %d floats", h.count)}
	}
	buf := mpi.GetBuffer(free, frameWords(h.count)) // frame-sized: frames and payloads share buffers
	payload, body := buf[:h.count], wordBytes(buf)[:8*h.count+checksumLen]
	if _, err := io.ReadFull(r, body); err != nil {
		return h, nil, &FrameError{Peer: from, Reason: "torn frame payload", Err: err}
	}
	sum := crc32.Update(crc32.ChecksumIEEE(hdr), crc32.IEEETable, body[:8*h.count])
	if want := binary.LittleEndian.Uint32(body[8*h.count:]); sum != want {
		return h, nil, &ChecksumError{Peer: from, Tag: h.tag, Want: want, Got: sum}
	}
	if !hostLE {
		wireOrder(payload)
	}
	return h, payload, nil
}
