// Package jobq turns the one-shot MG solver into a multi-tenant service
// core: a bounded job queue with admission control and per-tenant
// priorities, deduplication of identical in-flight jobs, cooperative
// cancellation, graceful drain, and a content-addressed result cache.
// cmd/mgd is the HTTP front end; the queue itself is transport-agnostic
// so the whole service contract is testable in-process.
//
// Jobs are keyed by (class, seed, impl, iterations, variant). Every
// solver in this repository is deterministic and bit-identical across
// worker counts and scheduling policies, so two requests with the same
// key have the same answer — which is what makes the result cache sound
// and lets concurrent identical submissions share one execution.
//
// Concurrent jobs multiplex over one process-global worker set
// (sched.Shared) and draw their grids from one recycling arena
// (mempool.Shared) through per-job scopes, so a resident daemon reuses
// both goroutines and buffers across solves instead of paying the
// per-process setup of the one-shot CLI.
package jobq

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/nas"
	"repro/internal/nasrand"
	"repro/internal/obs"
	wl "repro/internal/withloop"
)

// MaxIters bounds the per-request iteration override. The largest NPB
// class iteration count is 40 (class W); the bound leaves room for
// convergence studies while keeping a single job's runtime finite.
const MaxIters = 256

// MaxRequestBytes bounds the JSON body of one solve submission.
const MaxRequestBytes = 1 << 20

// Impls lists the implementations the service runs, in the paper's
// order: the SAC-style solver, the Fortran-77 reference port, and the
// C/OpenMP port.
var Impls = []string{"sac", "f77", "c"}

// Request is one solve submission. The zero value of every optional
// field selects the benchmark default, so {"class":"S"} is a complete
// request. Wait and Tenant are transport/scheduling options and are not
// part of the job identity; everything else is.
type Request struct {
	// Class is the NPB size class: S, W, A, B or C.
	Class string `json:"class"`
	// Impl selects the implementation: sac (default), f77 or c.
	Impl string `json:"impl,omitempty"`
	// Variant forces the plane-kernel backend (sac only): scalar,
	// buffered or simd. Empty selects the default dispatch. All variants
	// are bit-identical; the key still records the request so repeated
	// traffic maps onto the same cache row it asked for.
	Variant string `json:"variant,omitempty"`
	// Seed selects the zran3 charge stream (46-bit NPB LCG state);
	// 0 means the official seed 314159265. Non-default seeds define
	// alternative deterministic problems without verification constants.
	Seed uint64 `json:"seed,omitempty"`
	// Iters overrides the class's V-cycle iteration count; 0 means the
	// class default. Bounded by MaxIters.
	Iters int `json:"iters,omitempty"`
	// Tenant names the submitting tenant for priority scheduling and
	// accounting. Empty is the anonymous tenant at priority 0.
	Tenant string `json:"tenant,omitempty"`
	// Force bypasses the result cache (the job still deduplicates
	// against identical in-flight jobs and its result still lands in the
	// cache).
	Force bool `json:"force,omitempty"`
	// Wait asks the HTTP front end to hold the connection until the job
	// finishes instead of returning 202 immediately. Not part of the job
	// identity.
	Wait bool `json:"wait,omitempty"`
	// TraceID is the request's 128-bit trace identity (32 hex digits),
	// minted at HTTP ingress or propagated from the X-Mg-Trace-Id
	// header. It threads through the queue, the structured logs, the
	// kernel tracer and the flight recorder. Like Wait and Tenant it is
	// a transport concern, not part of the job identity — two requests
	// for the same problem share one execution and cache row while
	// keeping their own trace IDs. Empty means "mint one at Submit".
	TraceID string `json:"traceId,omitempty"`
}

// RequestError is a typed rejection of a malformed solve request: the
// field at fault and why. It maps to HTTP 400.
type RequestError struct {
	Field  string `json:"field"`
	Reason string `json:"reason"`
}

// Error implements error.
func (e *RequestError) Error() string {
	return fmt.Sprintf("jobq: bad request: %s: %s", e.Field, e.Reason)
}

// ParseRequest decodes and normalizes one JSON solve submission.
// Unknown fields, malformed JSON, and out-of-range values are rejected
// with a *RequestError naming the offending field.
func ParseRequest(body []byte) (Request, error) {
	if len(body) > MaxRequestBytes {
		return Request{}, &RequestError{Field: "body", Reason: "request exceeds 1 MiB"}
	}
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return Request{}, &RequestError{Field: "json", Reason: err.Error()}
	}
	if dec.More() {
		return Request{}, &RequestError{Field: "json", Reason: "trailing data after the request object"}
	}
	return req.Normalize()
}

// Normalize validates the request and fills every defaulted field with
// its concrete value, so equal problems have equal keys. The returned
// request is canonical: Class upper-case, Impl/Variant spelled out, Seed
// reduced to its 46-bit state, Iters the actual count.
func (r Request) Normalize() (Request, error) {
	r.Class = strings.ToUpper(strings.TrimSpace(r.Class))
	class, err := nas.ClassByName(r.Class)
	if err != nil {
		return Request{}, &RequestError{Field: "class", Reason: fmt.Sprintf("unknown class %q (want S, W, A, B or C)", r.Class)}
	}
	if r.Impl == "" {
		r.Impl = "sac"
	}
	valid := false
	for _, impl := range Impls {
		if r.Impl == impl {
			valid = true
		}
	}
	if !valid {
		return Request{}, &RequestError{Field: "impl", Reason: fmt.Sprintf("unknown implementation %q (want sac, f77 or c)", r.Impl)}
	}
	if r.Variant != "" {
		if r.Impl != "sac" {
			return Request{}, &RequestError{Field: "variant", Reason: "kernel variants apply to the sac implementation only"}
		}
		if !wl.ValidVariant(r.Variant) {
			return Request{}, &RequestError{Field: "variant", Reason: fmt.Sprintf("unknown variant %q (want %s, %s or %s)",
				r.Variant, wl.VariantScalar, wl.VariantBuffered, wl.VariantSIMD)}
		}
	}
	if r.Seed == 0 {
		r.Seed = nasrand.DefaultSeed
	}
	r.Seed &= 1<<46 - 1 // the NPB LCG state space
	if r.Seed == 0 {
		return Request{}, &RequestError{Field: "seed", Reason: "seed reduces to the LCG's all-zero fixed point"}
	}
	if r.Iters < 0 || r.Iters > MaxIters {
		return Request{}, &RequestError{Field: "iters", Reason: fmt.Sprintf("iterations must be in [0, %d]", MaxIters)}
	}
	if r.Iters == 0 {
		r.Iters = class.Iter
	}
	if len(r.Tenant) > 64 {
		return Request{}, &RequestError{Field: "tenant", Reason: "tenant name exceeds 64 bytes"}
	}
	if r.TraceID != "" && !obs.ValidTraceID(r.TraceID) {
		return Request{}, &RequestError{Field: "traceId", Reason: "trace ID must be 32 hex digits (W3C trace-id format)"}
	}
	return r, nil
}

// key is the canonical identity string of the job's problem — the axes
// the paper's harness sweeps, (class, seed, impl, iterations, variant) —
// excluding transport options. Call on a normalized request.
func (r Request) key() string {
	return fmt.Sprintf("class=%s seed=%d impl=%s iters=%d variant=%s",
		r.Class, r.Seed, r.Impl, r.Iters, r.Variant)
}

// ID is the content address of the job and its result: a truncated
// SHA-256 of the canonical key. Identical problems collide by design —
// that is the dedup and cache identity.
func (r Request) ID() string {
	sum := sha256.Sum256([]byte(r.key()))
	return hex.EncodeToString(sum[:8])
}

// class resolves the normalized request's class with its iteration
// override applied.
func (r Request) class() nas.Class {
	class, err := nas.ClassByName(r.Class)
	if err != nil {
		panic("jobq: class() on an unnormalized request: " + err.Error())
	}
	class.Iter = r.Iters
	return class
}

// official reports whether the request poses the official benchmark
// problem — default seed and iteration count — for which the NPB
// verification constant applies.
func (r Request) official() bool {
	class, err := nas.ClassByName(r.Class)
	return err == nil && r.Seed == nasrand.DefaultSeed && r.Iters == class.Iter
}
