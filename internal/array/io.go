// Binary serialization of arrays. The format is a fixed little-endian
// layout (magic, rank, extents, raw float64 data), so grids written by
// cmd/mg -dump can be compared across runs or loaded into other tools.
package array

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/shape"
)

// ioMagic identifies the serialization format ("SACA" + version 1).
const ioMagic uint32 = 0x53414301

// maxIORank bounds the rank accepted when reading, guarding against
// corrupted headers.
const maxIORank = 16

// maxIOElems bounds the element count accepted when reading: the data's
// byte size must fit an int.
const maxIOElems = math.MaxInt / 8

// ioChunk is how many elements ReadArray reads, and allocates, at a time.
const ioChunk = 1 << 16

// WriteTo serializes the array to w: magic, rank, extents and the
// row-major element data, all little-endian. It returns the number of
// bytes written.
func (a *Array) WriteTo(w io.Writer) (int64, error) {
	var n int64
	write := func(v any) error {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if err := write(ioMagic); err != nil {
		return n, fmt.Errorf("array: write header: %w", err)
	}
	if err := write(uint32(a.Dim())); err != nil {
		return n, fmt.Errorf("array: write rank: %w", err)
	}
	for _, e := range a.Shape() {
		if err := write(uint64(e)); err != nil {
			return n, fmt.Errorf("array: write extent: %w", err)
		}
	}
	if err := write(a.Data()); err != nil {
		return n, fmt.Errorf("array: write data: %w", err)
	}
	return n, nil
}

// ReadArray deserializes an array written by WriteTo.
func ReadArray(r io.Reader) (*Array, error) {
	var magic uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("array: read header: %w", err)
	}
	if magic != ioMagic {
		return nil, fmt.Errorf("array: bad magic %#x (not a serialized array)", magic)
	}
	var rank uint32
	if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
		return nil, fmt.Errorf("array: read rank: %w", err)
	}
	if rank > maxIORank {
		return nil, fmt.Errorf("array: implausible rank %d", rank)
	}
	shp := make(shape.Shape, rank)
	size := uint64(1)
	for i := range shp {
		var e uint64
		if err := binary.Read(r, binary.LittleEndian, &e); err != nil {
			return nil, fmt.Errorf("array: read extent: %w", err)
		}
		if e > maxIOElems || e != 0 && size > maxIOElems/e {
			return nil, fmt.Errorf("array: implausible size: %d elements times extent %d overflows", size, e)
		}
		size *= e
		shp[i] = int(e)
	}
	// Read in chunks, so a header that claims more data than the stream
	// carries fails at the stream's end instead of allocating the claim.
	data := make([]float64, 0, min(size, ioChunk))
	for uint64(len(data)) < size {
		n := int(min(size-uint64(len(data)), ioChunk))
		data = append(data, make([]float64, n)...)
		if err := binary.Read(r, binary.LittleEndian, data[len(data)-n:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("array: read data: %w", err)
		}
	}
	return Wrap(shp, data), nil
}
