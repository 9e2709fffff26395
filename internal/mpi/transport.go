package mpi

import (
	"fmt"

	"repro/internal/mempool"
)

// Transport is the point-to-point substrate one rank runs on: the
// contract is MPI-flavoured — Send/Recv with (source, tag) matching and
// FIFO ordering per (src, dst) pair — but says nothing about how bytes
// move. Two implementations exist:
//
//   - the channel runtime in this package (all ranks in one address
//     space, the "network" is Go channels — the simulation the original
//     future-work comparison runs on), and
//   - internal/mpinet, a real TCP transport with framed messages and
//     checksums, written by the sending goroutine itself, for runs where
//     every rank is its own OS process (cmd/mgrank).
//
// Errors are returned, not panicked, so a transport can report a dead
// peer, a timeout or a corrupt frame precisely; Comm converts them to
// panics that name the (rank, tag) pair, which is what a stuck halo
// exchange needs to be diagnosable.
//
// A Transport is used by a single rank. Send and Recv may be called from
// multiple goroutines of that rank, but two goroutines must not Recv
// from the same source concurrently (messages would race for the tag).
type Transport interface {
	// Rank returns this rank's id, 0 <= Rank < Size.
	Rank() int
	// Size returns the world size.
	Size() int
	// Send transmits a copy of data to dst with the given tag. It blocks
	// only for backpressure (a full mailbox or socket buffer) and must
	// preserve per-(src, dst) FIFO ordering.
	Send(dst, tag int, data []float64) error
	// Recv blocks for the next message from src, which must carry the
	// expected tag (per-pair FIFO makes a mismatch a protocol error, not
	// a reordering).
	Recv(src, tag int) ([]float64, error)
	// Release gives a payload returned by Recv back once it is unpacked: a
	// later message may reuse the memory, so the caller must not touch it
	// again. Never required — an unreleased payload is ordinary garbage.
	Release(payload []float64)
	// Stats snapshots this rank's accumulated traffic counters.
	Stats() Stats
	// Close tears down the rank's connections. It must be safe to call
	// more than once and must unblock pending Send/Recv calls.
	Close() error
}

// Comm is one rank's communicator: the blocking, panic-on-error API the
// solver kernels program against, plus a Broadcast built from
// point-to-point messages. A Comm is a thin veneer over a
// Transport; NewComm adapts any transport, and World.Run hands each rank
// a Comm over the in-process channel transport.
type Comm struct {
	t Transport
}

// NewComm wraps a transport in the communicator API.
func NewComm(t Transport) *Comm { return &Comm{t: t} }

// Transport returns the underlying transport.
func (c *Comm) Transport() Transport { return c.t }

// Rank returns this rank's id, 0 <= Rank < Size.
func (c *Comm) Rank() int { return c.t.Rank() }

// Size returns the world size.
func (c *Comm) Size() int { return c.t.Size() }

// Send transmits a copy of data to dst with the given tag. It blocks
// only for backpressure; a transport failure (dead peer, stalled
// mailbox, timeout) panics with the (rank, tag) pair so a stuck exchange
// names the culprit.
func (c *Comm) Send(dst, tag int, data []float64) {
	if err := c.t.Send(dst, tag, data); err != nil {
		panic(fmt.Sprintf("mpi: rank %d: Send to rank %d (tag %d): %v",
			c.t.Rank(), dst, tag, err))
	}
}

// Recv receives the next message from src, which must carry the expected
// tag. Transport failures panic with the (rank, tag) pair.
func (c *Comm) Recv(src, tag int) []float64 {
	data, err := c.t.Recv(src, tag)
	if err != nil {
		panic(fmt.Sprintf("mpi: rank %d: Recv from rank %d (tag %d): %v",
			c.t.Rank(), src, tag, err))
	}
	return data
}

// Release hands a received, unpacked payload back (Transport.Release).
func (c *Comm) Release(payload []float64) { c.t.Release(payload) }

// maxRecycledFloats bounds what a transport's message pool keeps: only
// halo-sized traffic is recycled, and a buffer of 1 MiB or more — a
// whole-box transfer — is plain garbage (DESIGN.md §4 item 8 has the
// measurement behind that).
const maxRecycledFloats = 1 << 17

// GetBuffer takes a message buffer of n values, contents unspecified, from
// a transport's pool (nil: a fresh one).
func GetBuffer(pool *mempool.Pool, n int) []float64 {
	if n >= maxRecycledFloats {
		return make([]float64, n)
	}
	return pool.GetDirty(n)
}

// PutBuffer gives back a buffer GetBuffer handed out, or the payload cut
// from its front; the caller must not touch it again.
func PutBuffer(pool *mempool.Pool, b []float64) {
	if b = b[:cap(b)]; len(b) < maxRecycledFloats {
		pool.Put(b)
	}
}

// Broadcast distributes root's buffer to every rank and returns it (the
// root returns its own buffer unchanged).
func (c *Comm) Broadcast(tag, root int, data []float64) []float64 {
	if c.Size() == 1 {
		return data
	}
	if c.Rank() == root {
		for dst := 0; dst < c.Size(); dst++ {
			if dst != root {
				c.Send(dst, tag, data)
			}
		}
		return data
	}
	return c.Recv(root, tag)
}
