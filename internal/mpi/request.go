// Nonblocking point-to-point operations: the Request handle returned by
// Transport.Isend/Irecv, and the chaining machinery that keeps a stream
// of nonblocking operations FIFO per (pair, direction) — the ordering
// guarantee the blocking API already had, which tag-matched protocols
// (the solver's halo exchange) depend on.
//
// Semantics, shared by both transports (asserted by request_test.go and
// the mpinet nonblocking tests):
//
//   - An Isend is "in flight" from the moment it returns: the payload is
//     copied (or framed) at post time and will be delivered even if the
//     Request is dropped without Wait. Message and byte counters are
//     recorded at post; a dropped Request therefore never undercounts
//     traffic.
//   - Wait blocks until the operation completes and returns the received
//     payload (Irecv) or nil (Isend), plus the typed transport error if
//     the operation failed — a dead peer surfaces at Wait, never as a
//     hang. Wait may be called out of order across requests; chaining
//     completes operations in post order regardless.
//   - Double Wait is defined: the second and later calls return the same
//     (data, error) without blocking and without double-counting any
//     statistics — blocked time and the receive-side accounting are
//     latched on the first Wait only.
//   - A dropped Request (never waited) completes in the background. Its
//     blocked time and, for Irecv, its receive-side row are simply never
//     recorded — accounting describes what the caller observed.
//   - Test is a non-blocking Wait: done==false means still in flight;
//     done==true latches exactly like a first Wait.
//
// Blocked time is measured inside Wait, not inside the post call: the
// whole point of the nonblocking API is that the caller computes while
// the wire drains, so ExchangeNanos (and the per-peer blocked rows)
// count only the time the caller actually stood still.
package mpi

import (
	"sync"
	"time"
)

// Request is a waitable handle on a nonblocking Isend/Irecv.
type Request interface {
	// Wait blocks until the operation completes, returning the payload
	// (Irecv; nil for Isend) and the typed transport error if it failed.
	// Safe to call more than once; later calls return the same result
	// immediately.
	Wait() ([]float64, error)
	// Test polls for completion without blocking. done==true latches the
	// result exactly like a first Wait.
	Test() (done bool, data []float64, err error)
}

// WaitAll waits for every request and returns the first error
// encountered (in argument order), after all of them have completed.
func WaitAll(reqs ...Request) error {
	var first error
	for _, r := range reqs {
		if r == nil {
			continue
		}
		if _, err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// AsyncRequest is the Request implementation shared by the channel
// transport and mpinet. The transport completes it (exactly once) with
// Complete; the first Wait/successful Test invokes onWait with the time
// the caller spent blocked, which is where the transports hang their
// deferred accounting (blocked nanos, receive rows).
type AsyncRequest struct {
	done chan struct{}
	data []float64
	err  error

	mu     sync.Mutex
	waited bool
	onWait func(blockedNanos int64, data []float64, err error)
}

// NewRequest creates an incomplete request. onFirstWait, if non-nil, is
// invoked exactly once — by the first Wait (with the time that call
// blocked) or the first successful Test (with zero) — on the waiting
// goroutine, which for the channel transport must be the rank's own
// (its aggregate Stats are goroutine-owned).
func NewRequest(onFirstWait func(blockedNanos int64, data []float64, err error)) *AsyncRequest {
	return &AsyncRequest{done: make(chan struct{}), onWait: onFirstWait}
}

// CompletedRequest returns an already-finished request — the fast paths
// (message already buffered, queue slot free, validation error) complete
// at post time and Wait returns immediately.
func CompletedRequest(data []float64, err error) *AsyncRequest {
	r := &AsyncRequest{done: make(chan struct{}), data: data, err: err}
	close(r.done)
	return r
}

// Complete finishes the request with its result. Must be called exactly
// once, and never on a CompletedRequest.
func (r *AsyncRequest) Complete(data []float64, err error) {
	r.data = data
	r.err = err
	close(r.done)
}

// Done exposes the completion channel for chaining: the next operation
// on the same (peer, direction) stream starts only after this one
// completed, preserving FIFO order.
func (r *AsyncRequest) Done() <-chan struct{} { return r.done }

// completed reports whether the operation has finished (without
// latching anything).
func (r *AsyncRequest) completed() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// latch runs the first-wait hook exactly once.
func (r *AsyncRequest) latch(blocked int64) {
	r.mu.Lock()
	if !r.waited {
		r.waited = true
		if r.onWait != nil {
			r.onWait(blocked, r.data, r.err)
		}
	}
	r.mu.Unlock()
}

// Wait implements Request.
func (r *AsyncRequest) Wait() ([]float64, error) {
	var blocked int64
	select {
	case <-r.done:
	default:
		start := time.Now()
		<-r.done
		blocked = int64(time.Since(start))
	}
	r.latch(blocked)
	return r.data, r.err
}

// Test implements Request.
func (r *AsyncRequest) Test() (bool, []float64, error) {
	select {
	case <-r.done:
		r.latch(0)
		return true, r.data, r.err
	default:
		return false, nil, nil
	}
}

// OpChain serializes one direction's nonblocking operations per peer so
// that a queue-full (or inbox-empty) slow path cannot be overtaken by a
// later operation on the same stream: each posted request chains on the
// previous one's completion. The fast path stays fast — with no pending
// predecessor the transport may complete the operation inline. The channel
// transport embeds two (send and receive), mpinet one (receive: its sends
// are written before they return); the zero value is ready.
type OpChain struct {
	mu   sync.Mutex
	tail map[int]*AsyncRequest
}

// Pending returns the still-running predecessor for key, or nil — the
// check a blocking call makes before its fast path, so it cannot overtake
// a nonblocking operation still queued on the same stream.
func (c *OpChain) Pending(key int) *AsyncRequest {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev := c.tail[key]; prev != nil && !prev.completed() {
		return prev
	}
	return nil
}

// Push registers r as the stream tail for key and returns the previous
// tail if it is still in flight (the request r must chain on), nil
// otherwise.
func (c *OpChain) Push(key int, r *AsyncRequest) *AsyncRequest {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.tail == nil {
		c.tail = make(map[int]*AsyncRequest)
	}
	prev := c.tail[key]
	c.tail[key] = r
	if prev != nil && !prev.completed() {
		return prev
	}
	return nil
}
