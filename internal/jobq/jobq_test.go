package jobq

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sReq builds a normalized class-S request with the given overrides.
func sReq(t *testing.T, mutate func(*Request)) Request {
	t.Helper()
	r := Request{Class: "S"}
	if mutate != nil {
		mutate(&r)
	}
	n, err := r.Normalize()
	if err != nil {
		t.Fatalf("Normalize(%+v): %v", r, err)
	}
	return n
}

// instantRun is a stub solver that returns a fixed norm and counts calls.
func instantRun(calls *atomic.Int64) RunFunc {
	return func(ctx context.Context, req Request) (Result, error) {
		calls.Add(1)
		return Result{Rnm2: 0.5, Rnmu: 0.25}, nil
	}
}

// gatedRun blocks every job until release is closed (or the job is
// cancelled), recording execution order by iteration count.
func gatedRun(release <-chan struct{}, order *[]string, mu *sync.Mutex) RunFunc {
	return func(ctx context.Context, req Request) (Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
			return Result{}, ctx.Err()
		}
		if order != nil {
			mu.Lock()
			*order = append(*order, req.Tenant)
			mu.Unlock()
		}
		return Result{Rnm2: 1}, nil
	}
}

// noLeak takes the goroutine count now and requires it back within 5 s
// when the test ends, after its deferred Close has stopped the runners.
// Call it before New so the count excludes the queue.
func noLeak(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		n := runtime.NumGoroutine()
		for n > base && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > base {
			buf := make([]byte, 1<<16)
			t.Errorf("%d goroutines left after Close, %d before New:\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
	})
}

func waitDone(t *testing.T, tk *Ticket) Result {
	t.Helper()
	select {
	case <-tk.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s did not finish", tk.ID())
	}
	return tk.Result()
}

func TestSubmitRejectsMalformedRequests(t *testing.T) {
	q := New(Config{Run: instantRun(&atomic.Int64{})})
	defer q.Close()
	for _, req := range []Request{
		{Class: "Z"},
		{Class: "S", Impl: "cuda"},
		{Class: "S", Iters: -1},
		{Class: "S", Iters: MaxIters + 1},
		{Class: "S", Impl: "f77", Variant: "simd"},
	} {
		if _, err := q.Submit(req); err == nil {
			t.Errorf("Submit(%+v): want error, got nil", req)
		} else {
			var re *RequestError
			if !errors.As(err, &re) {
				t.Errorf("Submit(%+v): error %v is not a *RequestError", req, err)
			}
		}
	}
}

func TestCacheHitServesWithoutRerun(t *testing.T) {
	var calls atomic.Int64
	q := New(Config{Run: instantRun(&calls)})
	defer q.Close()

	req := sReq(t, nil)
	first, err := q.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	res := waitDone(t, first)
	if res.State != StateDone || res.Rnm2 != 0.5 {
		t.Fatalf("first result = %+v", res)
	}
	if first.Cached() {
		t.Fatal("first submission reported cached")
	}

	second, err := q.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached() {
		t.Fatal("second submission not served from cache")
	}
	got := second.Result()
	if !got.Cached || got.Rnm2 != res.Rnm2 || got.ID != res.ID {
		t.Fatalf("cached result = %+v, want copy of %+v with Cached set", got, res)
	}
	if calls.Load() != 1 {
		t.Fatalf("solver ran %d times, want 1", calls.Load())
	}

	// Force bypasses the cache but refreshes it.
	forced := req
	forced.Force = true
	third, err := q.Submit(forced)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached() {
		t.Fatal("forced submission served from cache")
	}
	waitDone(t, third)
	if calls.Load() != 2 {
		t.Fatalf("solver ran %d times after Force, want 2", calls.Load())
	}

	s := q.Stats()
	if s.CacheHits != 1 {
		t.Errorf("CacheHits = %d, want 1", s.CacheHits)
	}
}

func TestDedupCoalescesInflightJobs(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int64
	q := New(Config{Run: func(ctx context.Context, req Request) (Result, error) {
		calls.Add(1)
		<-release
		return Result{Rnm2: 2}, nil
	}})
	defer q.Close()

	req := sReq(t, nil)
	a, err := q.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := q.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != b.ID() {
		t.Fatalf("tickets disagree on ID: %s vs %s", a.ID(), b.ID())
	}
	if b.Cached() {
		t.Fatal("in-flight dedup must attach to the job, not the cache")
	}
	close(release)
	ra, rb := waitDone(t, a), waitDone(t, b)
	if ra.Rnm2 != 2 || rb.Rnm2 != 2 {
		t.Fatalf("results = %+v / %+v", ra, rb)
	}
	if calls.Load() != 1 {
		t.Fatalf("solver ran %d times for identical submissions, want 1", calls.Load())
	}
	if s := q.Stats(); s.Deduped != 1 {
		t.Errorf("Deduped = %d, want 1", s.Deduped)
	}
}

func TestAdmissionControlRejectsWhenFull(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	q := New(Config{Capacity: 2, Run: gatedRun(release, nil, nil)})
	defer q.Close()

	// Distinct keys so dedup does not absorb the submissions.
	if _, err := q.Submit(sReq(t, func(r *Request) { r.Iters = 1 })); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(sReq(t, func(r *Request) { r.Iters = 2 })); err != nil {
		t.Fatal(err)
	}
	_, err := q.Submit(sReq(t, func(r *Request) { r.Iters = 3 }))
	var full *FullError
	if !errors.As(err, &full) {
		t.Fatalf("third submission: got %v, want *FullError", err)
	}
	if full.RetryAfter < time.Second {
		t.Errorf("RetryAfter = %s, want >= 1s floor", full.RetryAfter)
	}
	if s := q.Stats(); s.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", s.Rejected)
	}
}

func TestTenantPrioritiesOrderTheBacklog(t *testing.T) {
	release := make(chan struct{})
	var mu sync.Mutex
	var order []string
	hold := make(chan struct{})
	decoyStarted := make(chan struct{})
	q := New(Config{
		Runners:    1,
		Priorities: map[string]int{"gold": 10, "bronze": -1},
		Run: func(ctx context.Context, req Request) (Result, error) {
			if req.Iters == 9 {
				// The decoy occupies the single runner while the backlog
				// accumulates, so the pop order is the priority order.
				close(decoyStarted)
				<-hold
				return Result{Rnm2: 1}, nil
			}
			return gatedRun(release, &order, &mu)(ctx, req)
		},
	})
	defer q.Close()
	close(release)

	if _, err := q.Submit(sReq(t, func(r *Request) { r.Iters = 9 })); err != nil {
		t.Fatal(err)
	}
	<-decoyStarted
	for i, tenant := range []string{"bronze", "", "gold", "bronze", "gold"} {
		if _, err := q.Submit(sReq(t, func(r *Request) { r.Tenant = tenant; r.Iters = i + 1 })); err != nil {
			t.Fatal(err)
		}
	}
	close(hold)

	deadline := time.After(10 * time.Second)
	for {
		if q.Stats().Completed == 6 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("stalled; stats %+v", q.Stats())
		case <-time.After(5 * time.Millisecond):
		}
	}
	mu.Lock()
	got := strings.Join(order, ",")
	mu.Unlock()
	want := "gold,gold,,bronze,bronze"
	if got != want {
		t.Fatalf("execution order = %q, want %q (priority desc, FIFO within class)", got, want)
	}
}

func TestReleaseCancelsAbandonedJob(t *testing.T) {
	noLeak(t)
	started := make(chan struct{}, 1)
	q := New(Config{Run: func(ctx context.Context, req Request) (Result, error) {
		started <- struct{}{}
		<-ctx.Done()
		return Result{}, ctx.Err()
	}})
	defer q.Close()

	tk, err := q.Submit(sReq(t, func(r *Request) { r.Wait = true }))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	tk.Release() // the only waiter disconnects mid-solve
	res := waitDone(t, tk)
	if res.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", res.State)
	}
	if s := q.Stats(); s.Cancelled != 1 {
		t.Errorf("Cancelled = %d, want 1", s.Cancelled)
	}

	// A cancelled result must not satisfy later cache lookups.
	again, err := q.Submit(sReq(t, func(r *Request) { r.Wait = true }))
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached() {
		t.Fatal("cancelled result served as a cache hit")
	}
	<-started
	again.Release()
	waitDone(t, again)
}

func TestReleaseKeepsJobWithFireAndForgetOwner(t *testing.T) {
	release := make(chan struct{})
	q := New(Config{Run: gatedRun(release, nil, nil)})
	defer q.Close()

	fire, err := q.Submit(sReq(t, nil)) // fire-and-forget owner
	if err != nil {
		t.Fatal(err)
	}
	waiter, err := q.Submit(sReq(t, func(r *Request) { r.Wait = true }))
	if err != nil {
		t.Fatal(err)
	}
	waiter.Release() // the wait-mode client disconnects...
	close(release)
	if res := waitDone(t, fire); res.State != StateDone {
		// ...but the fire-and-forget owner still wants the result.
		t.Fatalf("state = %s, want done", res.State)
	}
}

func TestNonFiniteNormFailsJobWithoutKillingQueue(t *testing.T) {
	noLeak(t)
	poison := true
	q := New(Config{Run: func(ctx context.Context, req Request) (Result, error) {
		if poison {
			nan := 0.0
			return Result{Rnm2: nan / nan}, nil
		}
		return Result{Rnm2: 3}, nil
	}})
	defer q.Close()

	tk, err := q.Submit(sReq(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	res := waitDone(t, tk)
	if res.State != StateFailed || !strings.Contains(res.Error, "non-finite") {
		t.Fatalf("poisoned result = %+v, want failed with non-finite error", res)
	}

	// The failure is recorded for status lookups but is not a cache hit:
	// the same problem resubmitted runs again and can succeed.
	if got, ok := q.Lookup(res.ID); !ok || got.State != StateFailed {
		t.Fatalf("Lookup after failure = %+v, %v", got, ok)
	}
	poison = false
	retry, err := q.Submit(sReq(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if retry.Cached() {
		t.Fatal("failed result served as a cache hit")
	}
	if res := waitDone(t, retry); res.State != StateDone || res.Rnm2 != 3 {
		t.Fatalf("retry result = %+v", res)
	}
}

func TestDrainFinishesBacklogAndRefusesNewWork(t *testing.T) {
	noLeak(t)
	release := make(chan struct{})
	q := New(Config{Runners: 2, Run: gatedRun(release, nil, nil)})
	defer q.Close()

	var tickets []*Ticket
	for i := 1; i <= 4; i++ {
		tk, err := q.Submit(sReq(t, func(r *Request) { r.Iters = i }))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	drained := make(chan error, 1)
	go func() { drained <- q.Drain(context.Background()) }()
	time.Sleep(20 * time.Millisecond) // drain must be in effect before we probe intake

	if _, err := q.Submit(sReq(t, func(r *Request) { r.Iters = 9 })); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit during drain: got %v, want ErrDraining", err)
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, tk := range tickets {
		if res := waitDone(t, tk); res.State != StateDone {
			t.Fatalf("job %s finished %s, want done (drain must complete in-flight work)", res.ID, res.State)
		}
	}
}

func TestDrainDeadlineCancelsStragglers(t *testing.T) {
	noLeak(t)
	q := New(Config{Run: func(ctx context.Context, req Request) (Result, error) {
		<-ctx.Done() // a job that never finishes on its own
		return Result{}, ctx.Err()
	}})
	defer q.Close()

	tk, err := q.Submit(sReq(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain: got %v, want deadline exceeded", err)
	}
	if res := waitDone(t, tk); res.State != StateCancelled {
		t.Fatalf("straggler state = %s, want cancelled", res.State)
	}
}

func TestLookupTracksLifecycle(t *testing.T) {
	release := make(chan struct{})
	q := New(Config{Run: gatedRun(release, nil, nil)})
	defer q.Close()

	req := sReq(t, nil)
	if _, ok := q.Lookup(req.ID()); ok {
		t.Fatal("Lookup before submission succeeded")
	}
	tk, err := q.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		res, ok := q.Lookup(tk.ID())
		if !ok {
			t.Fatal("Lookup lost an in-flight job")
		}
		if res.State == StateRunning {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("job never reached running; state %s", res.State)
		case <-time.After(time.Millisecond):
		}
	}
	close(release)
	waitDone(t, tk)
	res, ok := q.Lookup(tk.ID())
	if !ok || res.State != StateDone {
		t.Fatalf("terminal Lookup = %+v, %v", res, ok)
	}
}

func TestResultCacheEvictsLRU(t *testing.T) {
	var calls atomic.Int64
	q := New(Config{CacheEntries: 2, Run: instantRun(&calls)})
	defer q.Close()

	ids := make([]string, 3)
	for i := 1; i <= 3; i++ {
		tk, err := q.Submit(sReq(t, func(r *Request) { r.Iters = i }))
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, tk)
		ids[i-1] = tk.ID()
	}
	if _, ok := q.Lookup(ids[0]); ok {
		t.Fatal("oldest entry survived past the cache capacity")
	}
	for _, id := range ids[1:] {
		if _, ok := q.Lookup(id); !ok {
			t.Fatalf("recent entry %s evicted", id)
		}
	}
}

func TestWritePrometheusSeries(t *testing.T) {
	var calls atomic.Int64
	q := New(Config{Run: instantRun(&calls)})
	defer q.Close()
	tk, err := q.Submit(sReq(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, tk)

	var sb strings.Builder
	q.WritePrometheus(&sb)
	out := sb.String()
	for _, series := range []string{
		"mgd_jobs_submitted_total 1",
		"mgd_jobs_completed_total 1",
		"mgd_cache_misses_total 1",
		"mgd_queue_depth 0",
		"mgd_cache_entries 1",
		"mgd_draining 0",
	} {
		if !strings.Contains(out, series) {
			t.Errorf("exposition missing %q:\n%s", series, out)
		}
	}
}
