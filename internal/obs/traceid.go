// Trace identity: 128-bit IDs minted at HTTP ingress (or accepted from
// the X-Mg-Trace-Id header) and carried through the job queue, the
// structured logs, the kernel tracer and the flight recorder — the join
// key of the whole observability layer.
package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync/atomic"
	"time"
)

// TraceHeader is the HTTP header carrying a request's trace ID, both
// inbound (a client or an upstream proxy propagating its own ID) and
// outbound (the daemon echoing the ID it assigned).
const TraceHeader = "X-Mg-Trace-Id"

// TraceID is a 128-bit request identifier, rendered as 32 lower-case
// hex digits (the W3C trace-context trace-id format).
type TraceID [16]byte

// zeroTrace is the invalid all-zero ID.
var zeroTrace TraceID

// traceSeq de-duplicates IDs minted inside one crypto/rand failure
// window (see NewTraceID's fallback).
var traceSeq atomic.Uint64

// NewTraceID mints a random 128-bit trace ID. It never fails: if the
// system entropy source errors (vanishingly rare), the fallback mixes
// the wall clock with a process-local counter — unique within the
// process, which is all the tracing layer needs.
func NewTraceID() TraceID {
	var id TraceID
	if _, err := rand.Read(id[:]); err == nil && id != zeroTrace {
		return id
	}
	binary.BigEndian.PutUint64(id[:8], uint64(time.Now().UnixNano()))
	binary.BigEndian.PutUint64(id[8:], traceSeq.Add(1))
	return id
}

// String renders the ID as 32 hex digits.
func (id TraceID) String() string {
	return hex.EncodeToString(id[:])
}

// valid reports whether the ID is non-zero.
func (id TraceID) valid() bool { return id != zeroTrace }

// parseTraceID parses a 32-hex-digit trace ID (the wire format of
// TraceHeader). The W3C trace-context format is strict: exactly 32
// lower-case hex digits, and the all-zero ID is the invalid marker —
// upper case, other lengths and non-hex bytes are all rejected, so a
// parsed ID always round-trips through String unchanged.
func parseTraceID(s string) (TraceID, error) {
	var id TraceID
	if len(s) != 32 {
		return id, fmt.Errorf("obs: trace ID %q: want 32 hex digits, have %d bytes", s, len(s))
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return TraceID{}, fmt.Errorf("obs: trace ID %q: byte %d is not a lower-case hex digit", s, i)
		}
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, fmt.Errorf("obs: trace ID %q: %v", s, err)
	}
	if !id.valid() {
		return TraceID{}, fmt.Errorf("obs: trace ID %q: the all-zero ID is invalid", s)
	}
	return id, nil
}

// ValidTraceID reports whether s parses as a trace ID.
func ValidTraceID(s string) bool {
	_, err := parseTraceID(s)
	return err == nil
}
