package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobq"
	"repro/internal/metrics"
	"repro/internal/nas"
	"repro/internal/obs"
	"repro/internal/sched"
	wl "repro/internal/withloop"
)

// noLeak takes the goroutine count now and requires it back within 5 s
// when the test ends, after newTestDaemon's cleanup has closed the server
// and the queue. Call it before newTestDaemon. The process-wide worker
// pool the real solver uses is started first so it is part of the
// baseline.
func noLeak(t *testing.T) {
	t.Helper()
	sched.Shared()
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
			t.Errorf("%d goroutines left after shutdown, %d before the daemon started:\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
	})
}

// newTestDaemon builds the full HTTP front end over a queue with the
// given config, listening on an ephemeral port. The observer is always
// wired (logs discarded) so tests exercise the real observability path.
func newTestDaemon(t *testing.T, cfg jobq.Config) (*httptest.Server, *jobq.Queue) {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.New(obs.Config{})
	}
	q := jobq.New(cfg)
	s := &server{q: q, collector: metrics.NewCollector(1), obs: cfg.Obs, started: time.Now()}
	ts := httptest.NewServer(s.routes())
	s.addr = ts.Listener.Addr().String()
	t.Cleanup(func() {
		ts.Close()
		q.Close()
	})
	return ts, q
}

func postSolve(t *testing.T, url, body string) (int, jobq.Result, http.Header) {
	t.Helper()
	resp, err := http.Post(url+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res jobq.Result
	if resp.StatusCode < 400 {
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatalf("decoding %s response: %v", resp.Status, err)
		}
	}
	return resp.StatusCode, res, resp.Header
}

func getJob(t *testing.T, url, id string) (int, jobq.Result) {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res jobq.Result
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, res
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// directClassS computes the reference rnm2 the way the one-shot CLI
// does — the value the daemon must reproduce bit for bit.
func directClassS(t *testing.T) float64 {
	t.Helper()
	class, err := nas.ClassByName("S")
	if err != nil {
		t.Fatal(err)
	}
	env := wl.Default()
	defer env.Close()
	b := core.NewBenchmark(class, env)
	rnm2, _ := b.Run()
	return rnm2
}

// TestDaemonLifecycle is the end-to-end integration test: a daemon on a
// random port serves a class-S solve over HTTP whose rnm2 is
// bit-identical to the direct harness solve, answers repeat traffic from
// the result cache, tracks jobs through status endpoints, and exposes
// service metrics.
func TestDaemonLifecycle(t *testing.T) {
	ts, _ := newTestDaemon(t, jobq.Config{Runners: 2})

	// Liveness and readiness before any traffic.
	if code, _ := getBody(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("healthz = %d", code)
	}
	if code, _ := getBody(t, ts.URL+"/readyz"); code != 200 {
		t.Fatalf("readyz = %d", code)
	}

	// Synchronous solve over HTTP, checked against the direct solver.
	code, res, _ := postSolve(t, ts.URL, `{"class":"S","wait":true}`)
	if code != http.StatusOK || res.State != jobq.StateDone {
		t.Fatalf("wait-mode solve: %d %+v", code, res)
	}
	want := directClassS(t)
	if res.Rnm2 != want {
		t.Fatalf("daemon rnm2 = %v, direct = %v (must be bit-identical)", res.Rnm2, want)
	}
	if res.Verified == nil || !*res.Verified {
		t.Fatalf("class-S solve not verified: %+v", res)
	}

	// Repeat traffic is a cache hit.
	code, cached, _ := postSolve(t, ts.URL, `{"class":"S"}`)
	if code != http.StatusOK || !cached.Cached || cached.Rnm2 != res.Rnm2 {
		t.Fatalf("repeat solve: %d %+v, want cached copy of the first result", code, cached)
	}

	// Asynchronous flow: 202 + id, then poll the status endpoints.
	code, accepted, _ := postSolve(t, ts.URL, `{"class":"S","iters":2}`)
	if code != http.StatusAccepted || accepted.ID == "" {
		t.Fatalf("async submit: %d %+v", code, accepted)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, st := getJob(t, ts.URL, accepted.ID)
		if code != http.StatusOK {
			t.Fatalf("job status = %d", code)
		}
		if st.State == jobq.StateDone {
			break
		}
		if st.State.Terminal() {
			t.Fatalf("async job ended %s: %+v", st.State, st)
		}
		if time.Now().After(deadline) {
			t.Fatalf("async job stuck in %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Unknown ids are 404.
	if code, _ := getJob(t, ts.URL, "ffffffffffffffff"); code != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", code)
	}

	// Service metrics expose the queue counters.
	code, body := getBody(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, series := range []string{"mgd_jobs_completed_total", "mgd_cache_hits_total", "mgd_queue_depth"} {
		if !strings.Contains(body, series) {
			t.Errorf("metrics missing %s", series)
		}
	}
}

// TestDaemonGracefulDrain covers the shutdown path: once draining, the
// daemon turns unready and refuses new work while admitted jobs run to
// completion.
func TestDaemonGracefulDrain(t *testing.T) {
	noLeak(t)
	release := make(chan struct{})
	ts, q := newTestDaemon(t, jobq.Config{Run: func(ctx context.Context, req jobq.Request) (jobq.Result, error) {
		select {
		case <-release:
			return jobq.Result{Rnm2: 7}, nil
		case <-ctx.Done():
			return jobq.Result{}, ctx.Err()
		}
	}})

	code, accepted, _ := postSolve(t, ts.URL, `{"class":"S"}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}

	drained := make(chan error, 1)
	go func() { drained <- q.Drain(context.Background()) }()
	waitFor(t, func() bool {
		code, _ := getBody(t, ts.URL+"/readyz")
		return code == http.StatusServiceUnavailable
	}, "readyz to report draining")

	if code, _, _ := postSolve(t, ts.URL, `{"class":"S","iters":3}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", code)
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	code, res := getJob(t, ts.URL, accepted.ID)
	if code != http.StatusOK || res.State != jobq.StateDone || res.Rnm2 != 7 {
		t.Fatalf("in-flight job after drain: %d %+v, want done (drain must not drop it)", code, res)
	}
}

// TestDaemonQueueFullRejects covers admission control over HTTP: a full
// queue answers 429 with a Retry-After estimate.
func TestDaemonQueueFullRejects(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ts, _ := newTestDaemon(t, jobq.Config{Capacity: 1, Run: func(ctx context.Context, req jobq.Request) (jobq.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return jobq.Result{Rnm2: 1}, nil
	}})

	if code, _, _ := postSolve(t, ts.URL, `{"class":"S"}`); code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	code, _, hdr := postSolve(t, ts.URL, `{"class":"S","iters":3}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit = %d, want 429", code)
	}
	retry, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After = %q, want an integer >= 1", hdr.Get("Retry-After"))
	}
}

// TestDaemonClientDisconnectCancels covers the wait-mode contract: when
// the submitting client goes away mid-solve and no one else claimed the
// job, the solve is cancelled instead of burning workers for nobody.
func TestDaemonClientDisconnectCancels(t *testing.T) {
	noLeak(t)
	running := make(chan struct{}, 1)
	ts, _ := newTestDaemon(t, jobq.Config{Run: func(ctx context.Context, req jobq.Request) (jobq.Result, error) {
		running <- struct{}{}
		<-ctx.Done()
		return jobq.Result{}, ctx.Err()
	}})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/solve",
		strings.NewReader(`{"class":"S","wait":true}`))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	<-running // the solve is executing; now the client vanishes
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("disconnected request returned a response")
	}

	id, err2 := jobq.Request{Class: "S", Wait: true}.Normalize()
	if err2 != nil {
		t.Fatal(err2)
	}
	waitFor(t, func() bool {
		_, res := getJob(t, ts.URL, id.ID())
		return res.State == jobq.StateCancelled
	}, "job to be cancelled after client disconnect")
}

// TestDaemonPoisonedSolveFailsJob covers the chaos hook end to end: a
// NaN-poisoned solve surfaces as a failed job — with the daemon alive
// and serving clean traffic afterwards.
func TestDaemonPoisonedSolveFailsJob(t *testing.T) {
	noLeak(t)
	ts, _ := newTestDaemon(t, jobq.Config{
		Run: poisonTenant(jobq.Solver(nil, nil), "chaos"),
	})

	code, res, _ := postSolve(t, ts.URL, `{"class":"S","tenant":"chaos","wait":true}`)
	if code != http.StatusOK || res.State != jobq.StateFailed {
		t.Fatalf("poisoned solve: %d %+v, want a failed job", code, res)
	}
	if !strings.Contains(res.Error, "non-finite") {
		t.Fatalf("failure reason %q does not name the non-finite norm", res.Error)
	}

	// The daemon survives: liveness holds and an unpoisoned tenant's
	// solve of the same problem re-runs (no cached failure) and verifies.
	if code, _ := getBody(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("healthz after poison = %d", code)
	}
	code, clean, _ := postSolve(t, ts.URL, `{"class":"S","wait":true}`)
	if code != http.StatusOK || clean.State != jobq.StateDone || clean.Cached {
		t.Fatalf("clean solve after poison: %d %+v", code, clean)
	}
	if clean.Verified == nil || !*clean.Verified {
		t.Fatalf("clean solve not verified: %+v", clean)
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// An invalid count flag is a one-line usage error with exit status 2, not
// a daemon quietly running with the default jobq or sched substitutes for
// it. The daemon exits before it starts a pool or listens.
func TestInvalidCountFlagsRejected(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "mgd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct {
		args string
		want string
	}{
		{"-runners 0", "mgd: -runners must be at least 1; got 0"},
		{"-capacity 0", "mgd: -capacity must be at least 1; got 0"},
		{"-cache 0", "mgd: -cache must be at least 1; got 0"},
		{"-workers -1", "mgd: -workers must be at least 0; got -1"},
	} {
		// A daemon that accepted the value would serve until killed.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := exec.CommandContext(ctx, bin, append([]string{"-addr", "127.0.0.1:0"}, strings.Fields(c.args)...)...).CombinedOutput()
		cancel()
		got := strings.TrimSpace(string(out))
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || got != c.want {
			t.Errorf("%s: %v, output %q; want exit status 2 and the one line %q", c.args, err, out, c.want)
		}
	}
}
