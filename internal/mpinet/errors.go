package mpinet

import (
	"fmt"
	"time"
)

// The typed failure modes of the TCP transport. Every way a distributed
// solve can go wrong — a peer process dying, a corrupt or truncated
// frame, a protocol mismatch at the handshake, a stalled peer — surfaces
// as one of these within the configured deadline, so a failed run is
// diagnosable (which rank, which tag, what broke) instead of a hang.
// All of them are matchable with errors.As.

// PeerError reports a connection-level failure talking to one peer: the
// socket broke (the peer process likely exited or was killed) or an I/O
// deadline expired mid-operation.
type PeerError struct {
	Peer int    // the rank whose connection failed
	Op   string // "read", "write", "handshake"
	Err  error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("mpinet: connection to rank %d broken (%s): %v", e.Peer, e.Op, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// PeerDeadError reports that a rank is known dead: either its connection
// was lost directly, or another rank relayed an abort naming it.
type PeerDeadError struct {
	Peer int // the dead rank
	Via  int // the rank that relayed the abort; -1 when detected directly
}

func (e *PeerDeadError) Error() string {
	if e.Via < 0 {
		return fmt.Sprintf("mpinet: rank %d is dead (connection lost)", e.Peer)
	}
	return fmt.Sprintf("mpinet: rank %d is dead (abort relayed by rank %d)", e.Peer, e.Via)
}

// FrameError reports a malformed inbound frame: bad magic (the stream
// desynchronized), a torn frame (the peer stalled mid-frame until the
// read deadline), an impossible payload length, or a source rank that
// does not match the connection.
type FrameError struct {
	Peer   int
	Reason string
	Err    error // underlying I/O error, if any
}

func (e *FrameError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("mpinet: bad frame from rank %d: %s: %v", e.Peer, e.Reason, e.Err)
	}
	return fmt.Sprintf("mpinet: bad frame from rank %d: %s", e.Peer, e.Reason)
}

func (e *FrameError) Unwrap() error { return e.Err }

// ChecksumError reports a frame whose payload checksum did not match:
// the bytes were corrupted in flight or the stream is desynchronized.
type ChecksumError struct {
	Peer      int
	Tag       int
	Want, Got uint32
}

func (e *ChecksumError) Error() string {
	return fmt.Sprintf("mpinet: checksum mismatch on frame from rank %d (tag %d): want %08x, got %08x",
		e.Peer, e.Tag, e.Want, e.Got)
}

// VersionError reports a protocol-version mismatch at the handshake: the
// two processes were built from incompatible revisions of the wire
// format.
type VersionError struct {
	Want, Got uint16
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("mpinet: protocol version mismatch: this side speaks v%d, peer speaks v%d", e.Want, e.Got)
}

// HandshakeError reports a rendezvous or mesh handshake that failed for
// a reason other than the protocol version: wrong magic, a rank id out
// of range or already taken, or disagreement on world size or grid
// class.
type HandshakeError struct {
	Peer   int // the rank that misbehaved; -1 when unknown
	Reason string
}

func (e *HandshakeError) Error() string {
	if e.Peer < 0 {
		return "mpinet: handshake failed: " + e.Reason
	}
	return fmt.Sprintf("mpinet: handshake with rank %d failed: %s", e.Peer, e.Reason)
}

// TimeoutError reports an operation that exceeded its deadline: a Recv
// with no matching message, a send that waited out another writer of the
// same peer, or a rendezvous still waiting for ranks to join. (A write
// that outlives its deadline is a PeerError wrapping the timeout: the
// stream is torn.)
type TimeoutError struct {
	Peer int // the rank being waited on; -1 for the whole world
	Tag  int
	Op   string
	Wait time.Duration
}

func (e *TimeoutError) Error() string {
	if e.Peer < 0 {
		return fmt.Sprintf("mpinet: %s timed out after %v", e.Op, e.Wait)
	}
	return fmt.Sprintf("mpinet: %s for rank %d (tag %d) timed out after %v — dead or deadlocked peer",
		e.Op, e.Peer, e.Tag, e.Wait)
}
