package jobq

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cport"
	"repro/internal/f77"
	"repro/internal/mempool"
	"repro/internal/nas"
	"repro/internal/sched"
	wl "repro/internal/withloop"
)

// directSolve computes the reference norm for a normalized request the
// way the one-shot CLI does: a private sequential environment, no queue,
// no sharing. The service must reproduce it bit for bit.
func directSolve(t *testing.T, req Request) float64 {
	t.Helper()
	class, err := nas.ClassByName(req.Class)
	if err != nil {
		t.Fatal(err)
	}
	class.Iter = req.Iters
	switch req.Impl {
	case "sac":
		env := wl.Default()
		env.Variant = req.Variant
		defer env.Close()
		b := core.NewBenchmark(class, env)
		b.Seed = req.Seed
		rnm2, _ := b.Run()
		return rnm2
	case "f77":
		s := f77.New(class)
		s.Seed = req.Seed
		rnm2, _ := s.Run()
		return rnm2
	case "c":
		s := cport.New(class)
		s.Seed = req.Seed
		rnm2, _ := s.Run()
		return rnm2
	}
	t.Fatalf("unknown impl %q", req.Impl)
	return 0
}

// TestServiceSolveMatchesDirect is the determinism contract of the
// service: for every implementation, kernel variant and seed, a job
// solved through the queue — shared worker pool, shared arena, health
// monitor attached — returns exactly the rnm2 a standalone solve
// produces. Float equality here is bitwise (==), not approximate.
func TestServiceSolveMatchesDirect(t *testing.T) {
	q := New(Config{Runners: 2})
	defer q.Close()

	reqs := []Request{
		{Class: "S"},
		{Class: "S", Impl: "f77"},
		{Class: "S", Impl: "c"},
		{Class: "S", Variant: wl.VariantScalar},
		{Class: "S", Variant: wl.VariantBuffered},
		{Class: "S", Iters: 2},
		{Class: "S", Seed: 271828183, Iters: 3},
		{Class: "S", Impl: "f77", Seed: 271828183, Iters: 3},
		{Class: "S", Impl: "c", Seed: 271828183, Iters: 3},
	}
	for _, raw := range reqs {
		raw := raw
		name := fmt.Sprintf("%s_%s_v%s_s%d_i%d", raw.Class, raw.Impl, raw.Variant, raw.Seed, raw.Iters)
		t.Run(name, func(t *testing.T) {
			req, err := raw.Normalize()
			if err != nil {
				t.Fatal(err)
			}
			tk, err := q.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-tk.Done():
			case <-time.After(60 * time.Second):
				t.Fatal("solve did not finish")
			}
			res := tk.Result()
			if res.State != StateDone {
				t.Fatalf("state = %s (%s)", res.State, res.Error)
			}
			want := directSolve(t, req)
			if res.Rnm2 != want {
				t.Errorf("service rnm2 = %v, direct = %v (must be bit-identical)", res.Rnm2, want)
			}
			if req.official() {
				if res.Verified == nil || !*res.Verified {
					t.Errorf("official class-S problem not verified: %+v", res)
				}
			} else if res.Verified != nil {
				t.Errorf("non-official problem carries a verification verdict: %+v", res)
			}
			if req.Impl == "sac" && res.Health == "" {
				t.Error("sac job missing a convergence-health verdict")
			}
		})
	}
}

// TestDefaultDispatchKeepsJobIdentity pins that the default backend rule
// lives below the job's identity: a request without a variant keeps its
// empty Variant (and so its cache key) even on hosts where it resolves to
// simd, an explicit simd request is a different job that is solved rather
// than served from the default's cache entry, and the two agree bitwise.
func TestDefaultDispatchKeepsJobIdentity(t *testing.T) {
	q := New(Config{Runners: 1})
	defer q.Close()

	solve := func(raw Request) (Request, Result, bool) {
		t.Helper()
		req, err := raw.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		tk, err := q.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		res := waitDone(t, tk)
		if res.State != StateDone {
			t.Fatalf("state = %s (%s)", res.State, res.Error)
		}
		return req, res, tk.Cached()
	}
	def, defRes, _ := solve(Request{Class: "S"})
	forced, forcedRes, cached := solve(Request{Class: "S", Variant: wl.VariantSIMD})
	if def.Variant != "" {
		t.Errorf("normalized default request carries variant %q, want it empty", def.Variant)
	}
	if def.ID() == forced.ID() {
		t.Errorf("default and explicit-simd requests share job ID %s", def.ID())
	}
	if cached {
		t.Error("explicit-simd request was served from the default request's cache entry")
	}
	if defRes.Rnm2 != forcedRes.Rnm2 {
		t.Errorf("default rnm2 = %v, simd rnm2 = %v (must be bit-identical)", defRes.Rnm2, forcedRes.Rnm2)
	}
}

// TestConcurrentSubmitStress hammers one queue — and through it the
// process-global worker pool and buffer arena — with identical and
// distinct jobs from many goroutines, mixing cache hits, dedup attaches
// and forced re-solves. Run under -race in CI; every result must still
// be bit-identical to the direct solve.
func TestConcurrentSubmitStress(t *testing.T) {
	clients, rounds := 8, 6
	if testing.Short() {
		clients, rounds = 4, 3
	}
	q := New(Config{Runners: 4, Capacity: 4 * clients * rounds})
	defer q.Close()

	// Reference norms per distinct problem, computed once up front.
	variants := []Request{
		{Class: "S", Iters: 1},
		{Class: "S", Iters: 2},
		{Class: "S", Impl: "f77", Iters: 1},
		{Class: "S", Impl: "c", Iters: 1},
	}
	want := make(map[string]float64)
	for i, raw := range variants {
		req, err := raw.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		variants[i] = req
		want[req.ID()] = directSolve(t, req)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				req := variants[(c+r)%len(variants)]
				req.Force = r%3 == 2 // every third round bypasses the cache
				req.Wait = c%2 == 0
				tk, err := q.Submit(req)
				if err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", c, r, err)
					return
				}
				select {
				case <-tk.Done():
				case <-time.After(120 * time.Second):
					errs <- fmt.Errorf("client %d round %d: timeout", c, r)
					return
				}
				res := tk.Result()
				if res.State != StateDone {
					errs <- fmt.Errorf("client %d round %d: state %s (%s)", c, r, res.State, res.Error)
					return
				}
				if res.Rnm2 != want[req.ID()] {
					errs <- fmt.Errorf("client %d round %d: rnm2 %v, want %v", c, r, res.Rnm2, want[req.ID()])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s := q.Stats()
	if s.Completed == 0 || s.CacheHits == 0 {
		t.Errorf("stress run exercised too little: %+v", s)
	}
	t.Logf("stress stats: %+v", s)
}

// TestConcurrentSolvesLeaveArenaBalanced runs two sac solves at once over
// one worker pool and one buffer arena — every grid, and every ring and
// row buffer of the pipelined V-cycle legs, comes from per-job scopes of
// the same free lists — and then holds the arena to zero live buffers:
// each job gave back everything it borrowed, v and u included. Run under
// -race in CI.
func TestConcurrentSolvesLeaveArenaBalanced(t *testing.T) {
	arena := mempool.New(true)
	arena.SetParanoid(true)
	pool := sched.NewPersistent(2) // jobs may only share a persistent pool
	run := Solver(pool, arena)

	reqs := []Request{{Class: "S", Iters: 2}, {Class: "S", Seed: 271828183, Iters: 3}}
	var wg sync.WaitGroup
	for _, raw := range reqs {
		req, err := raw.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		want := directSolve(t, req)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				res, err := run(context.Background(), req)
				if err != nil {
					t.Error(err)
				} else if res.Rnm2 != want {
					t.Errorf("seed %d: rnm2 %v, direct solve %v", req.Seed, res.Rnm2, want)
				}
			}
		}()
	}
	wg.Wait()
	if st := arena.Stats(); st.Allocs+st.Reuses != st.Puts {
		t.Fatalf("%d arena buffers still out after both jobs finished", st.Allocs+st.Reuses-st.Puts)
	}
}

// TestCacheHitLatency checks the shape of the service's headline number:
// repeat traffic answered from the result cache must be far cheaper than
// re-solving. The full >=100x claim is measured by cmd/mgload
// (EXPERIMENTS.md); here a deliberately loose 10x bound keeps the test
// meaningful without timing flakes.
func TestCacheHitLatency(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	q := New(Config{})
	defer q.Close()

	req, err := Request{Class: "S"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	coldStart := time.Now()
	tk, err := q.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-tk.Done()
	if res := tk.Result(); res.State != StateDone {
		t.Fatalf("cold solve failed: %+v", res)
	}
	cold := time.Since(coldStart)

	const hits = 200
	hitStart := time.Now()
	for i := 0; i < hits; i++ {
		tk, err := q.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if !tk.Cached() {
			t.Fatal("repeat submission missed the cache")
		}
	}
	perHit := time.Since(hitStart) / hits
	if perHit*10 > cold {
		t.Errorf("cache hit %s vs cold solve %s: want at least 10x cheaper", perHit, cold)
	}
	t.Logf("cold=%s hit=%s ratio=%.0fx", cold, perHit, float64(cold)/float64(perHit))
}

// pollCtx is a context that reads as cancelled from the first Err call on
// and counts the calls; its Done channel never fires, so only a solver
// that polls sees the cancellation.
type pollCtx struct {
	context.Context
	polls int
}

func (c *pollCtx) Err() error { c.polls++; return context.Canceled }

// TestSolveStopsOnCancel holds every implementation arm to wiring the job
// context into its solver's Cancel: a job cancelled before its first
// iteration polls once inside the solve, once more after it, and returns
// the context's error.
func TestSolveStopsOnCancel(t *testing.T) {
	run := NewSolver(SolverConfig{}) // starts the shared pool before the baseline
	noLeak(t)
	for _, impl := range Impls {
		ctx := &pollCtx{Context: context.Background()}
		if _, err := run(ctx, sReq(t, func(r *Request) { r.Impl = impl })); err != context.Canceled {
			t.Errorf("%s: err = %v, want context.Canceled", impl, err)
		}
		if ctx.polls != 2 {
			t.Errorf("%s: context polled %d times, want 2 (once by Cancel, once after the solve)", impl, ctx.polls)
		}
	}
}
