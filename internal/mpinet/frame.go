package mpinet

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
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
	// The largest legitimate message is a scatter of one rank's finest
	// sub-box; anything bigger is a corrupt length field, and rejecting
	// it keeps a desynchronized stream from demanding absurd
	// allocations.
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

// encodeFrame marshals one message into a wire frame.
func encodeFrame(src int, tag int, data []float64) []byte {
	buf := make([]byte, headerLen+8*len(data)+checksumLen)
	binary.LittleEndian.PutUint32(buf[0:], frameMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(src))
	binary.LittleEndian.PutUint32(buf[8:], uint32(int32(tag)))
	binary.LittleEndian.PutUint32(buf[12:], uint32(len(data)))
	for i, v := range data {
		binary.LittleEndian.PutUint64(buf[headerLen+8*i:], math.Float64bits(v))
	}
	sum := crc32.ChecksumIEEE(buf[:len(buf)-checksumLen])
	binary.LittleEndian.PutUint32(buf[len(buf)-checksumLen:], sum)
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

// readFrame reads and validates one frame sent by rank `from`: framing
// (magic), provenance (the source field must name the connection's peer), a
// plausible length — checked before the payload is allocated — and the
// checksum. hdr is headerLen bytes of scratch. Whatever the bytes, the
// outcome is a payload or a typed error (*FrameError, *ChecksumError).
func readFrame(r io.Reader, hdr []byte, from int) (frameHeader, []float64, error) {
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
	body := make([]byte, 8*h.count+checksumLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return h, nil, &FrameError{Peer: from, Reason: "torn frame payload", Err: err}
	}
	payload := body[: len(body)-checksumLen : len(body)-checksumLen]
	sum := crc32Frame(hdr, payload)
	if want := leU32(body[len(payload):]); sum != want {
		return h, nil, &ChecksumError{Peer: from, Tag: h.tag, Want: want, Got: sum}
	}
	return h, decodeFloats(payload), nil
}

// crc32Frame computes the frame checksum over header and payload.
func crc32Frame(hdr, payload []byte) uint32 {
	sum := crc32.ChecksumIEEE(hdr)
	return crc32.Update(sum, crc32.IEEETable, payload)
}

// leU32 reads one little-endian uint32.
func leU32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }

// decodeFloats unmarshals a little-endian float64 payload.
func decodeFloats(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
