package jobq

import (
	"encoding/json"
	"errors"
	"testing"
)

// FuzzSolveRequest fuzzes the job-submission JSON parser — the daemon's
// only untrusted input. Invariants: ParseRequest never panics; every
// rejection is a typed *RequestError naming a field; every accepted
// request is canonical (Normalize is idempotent), has in-range fields,
// and yields a stable 16-hex-digit content address.
func FuzzSolveRequest(f *testing.F) {
	seeds := []string{
		`{"class":"S"}`,
		`{"class":"s"}`,
		`{"class":"A","impl":"f77","iters":4}`,
		`{"class":"W","impl":"sac","variant":"simd","seed":1,"tenant":"lab","wait":true}`,
		`{"class":"B","impl":"c","force":true}`,
		`{"class":"S","variant":"buffered"}`,
		`{"class":"S","seed":70368744177664}`,
		`{"class":"Z"}`,
		`{"class":"S","impl":"cuda"}`,
		`{"class":"S","iters":-3}`,
		`{"class":"S","iters":100000}`,
		`{"class":"S","impl":"f77","variant":"simd"}`,
		`{"class":"S","unknown":"field"}`,
		`{"class":"S"}{"class":"W"}`,
		`[1,2,3]`,
		`{`,
		``,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := ParseRequest(body)
		if err != nil {
			var re *RequestError
			if !errors.As(err, &re) {
				t.Fatalf("ParseRequest(%q): rejection %v is not a *RequestError", body, err)
			}
			if re.Field == "" || re.Reason == "" {
				t.Fatalf("ParseRequest(%q): rejection missing field/reason: %+v", body, re)
			}
			return
		}

		// Accepted requests are fully canonical.
		again, err := req.Normalize()
		if err != nil {
			t.Fatalf("Normalize not idempotent for %q: %v", body, err)
		}
		if again != req {
			t.Fatalf("Normalize not a fixpoint: %+v vs %+v", req, again)
		}
		switch req.Class {
		case "S", "W", "A", "B", "C":
		default:
			t.Fatalf("accepted unknown class %q", req.Class)
		}
		valid := false
		for _, impl := range Impls {
			if req.Impl == impl {
				valid = true
			}
		}
		if !valid {
			t.Fatalf("accepted unknown impl %q", req.Impl)
		}
		if req.Variant != "" && req.Impl != "sac" {
			t.Fatalf("accepted variant %q for impl %q", req.Variant, req.Impl)
		}
		if req.Iters < 1 || req.Iters > MaxIters {
			t.Fatalf("accepted out-of-range iters %d", req.Iters)
		}
		if req.Seed == 0 || req.Seed >= 1<<46 {
			t.Fatalf("accepted out-of-range seed %d", req.Seed)
		}
		if id := req.ID(); len(id) != 16 {
			t.Fatalf("ID %q is not 16 hex digits", id)
		}
		if req.ID() != again.ID() || req.key() != again.key() {
			t.Fatal("content address not stable under re-normalization")
		}
		// The canonical request survives a JSON round trip with the same
		// identity — what the daemon echoes back must mean the same job.
		blob, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		round, err := ParseRequest(blob)
		if err != nil {
			t.Fatalf("canonical request %s rejected on re-parse: %v", blob, err)
		}
		if round.ID() != req.ID() {
			t.Fatalf("round trip changed identity: %s vs %s", round.key(), req.key())
		}
	})
}
