package main

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/jobq"
	"repro/internal/metrics"
	"repro/internal/mgtest"
	"repro/internal/obs"
)

// postSolveTraced posts one solve with an X-Mg-Trace-Id request header.
func postSolveTraced(t *testing.T, url, body, traceID string) (int, jobq.Result, http.Header) {
	t.Helper()
	req, err := http.NewRequest("POST", url+"/v1/solve", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(obs.TraceHeader, traceID)
	}
	resp, err := http.DefaultClient.Do(req)
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

// TestDaemonTraceHeaderPropagation pins the ingress half of request
// tracing: a valid X-Mg-Trace-Id is adopted and echoed, an invalid or
// missing one is replaced by a freshly minted ID, and the job's result
// carries the trace ID and its stage breakdown.
func TestDaemonTraceHeaderPropagation(t *testing.T) {
	ts, _ := newTestDaemon(t, jobq.Config{Runners: 1})

	const mine = "0123456789abcdef0123456789abcdef"
	code, res, hdr := postSolveTraced(t, ts.URL, `{"class":"S","wait":true}`, mine)
	if code != http.StatusOK {
		t.Fatalf("solve = %d", code)
	}
	if hdr.Get(obs.TraceHeader) != mine {
		t.Fatalf("echoed trace = %q, want the caller's %q", hdr.Get(obs.TraceHeader), mine)
	}
	if res.TraceID != mine {
		t.Fatalf("result trace = %q, want %q", res.TraceID, mine)
	}
	if res.Stages == nil || res.Stages.TotalSeconds <= 0 || res.Stages.SolveSeconds <= 0 {
		t.Fatalf("result missing its stage breakdown: %+v", res.Stages)
	}

	// An invalid header (uppercase is not canonical W3C form) is replaced
	// by a minted ID, never propagated.
	code, res, hdr = postSolveTraced(t, ts.URL, `{"class":"S","iters":1,"wait":true}`, "NOT-A-TRACE-ID")
	if code != http.StatusOK {
		t.Fatalf("solve = %d", code)
	}
	minted := hdr.Get(obs.TraceHeader)
	if !obs.ValidTraceID(minted) {
		t.Fatalf("minted trace %q is invalid", minted)
	}
	if res.TraceID != minted {
		t.Fatalf("result trace %q != echoed header %q", res.TraceID, minted)
	}

	// The cache hit keeps the submitter's own trace identity: repeat
	// traffic shares the result, not the trace.
	const other = "fedcba9876543210fedcba9876543210"
	code, cached, _ := postSolveTraced(t, ts.URL, `{"class":"S"}`, other)
	if code != http.StatusOK || !cached.Cached {
		t.Fatalf("repeat solve: %d %+v, want a cache hit", code, cached)
	}
	if cached.TraceID != other {
		t.Fatalf("cache-hit trace = %q, want the second caller's %q", cached.TraceID, other)
	}

	// The stage histograms surface in /metrics.
	code, body := getBody(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		"# TYPE mgd_stage_seconds histogram",
		`mgd_stage_seconds_bucket{stage="solve",status="done"`,
		`mgd_stage_seconds_count{stage="ingress",status="done"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// /v1/stats reports the bound address and the cumulative stage clock.
	code, statsBody := getBody(t, ts.URL+"/v1/stats")
	if code != 200 {
		t.Fatalf("stats = %d", code)
	}
	var stats struct {
		Addr         string             `json:"addr"`
		StageSeconds map[string]float64 `json:"StageSeconds"`
	}
	if err := json.Unmarshal([]byte(statsBody), &stats); err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimPrefix(ts.URL, "http://"); stats.Addr != want {
		t.Fatalf("stats addr = %q, want the bound address %q", stats.Addr, want)
	}
	if stats.StageSeconds[obs.StageSolve] <= 0 {
		t.Fatalf("stats stage seconds missing solve: %v", stats.StageSeconds)
	}
}

// finishedSignal is a log handler that signals each "job finished" line —
// the observer's last act for a job, after the stage histograms and the
// flight ring have it. A job answers its waiters before its observer
// hooks run, so a test that reads observer state waits on this, not on
// the HTTP response.
type finishedSignal chan struct{}

func (h finishedSignal) Enabled(context.Context, slog.Level) bool { return true }
func (h finishedSignal) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h finishedSignal) WithGroup(string) slog.Handler            { return h }
func (h finishedSignal) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "job finished" {
		select {
		case h <- struct{}{}:
		default: // nobody is behind on signals; never block the runner
		}
	}
	return nil
}

// TestDaemonFlightRecorderEndpoint pins GET /debug/flightrecorder: a
// JSON Dump with reason http-request whose ring names recent jobs.
func TestDaemonFlightRecorderEndpoint(t *testing.T) {
	finished := make(finishedSignal, 1)
	ts, _ := newTestDaemon(t, jobq.Config{Runners: 1,
		Obs: obs.New(obs.Config{Log: slog.New(finished)})})
	code, res, _ := postSolve(t, ts.URL, `{"class":"S","wait":true}`)
	if code != http.StatusOK {
		t.Fatalf("solve = %d", code)
	}
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("observer did not record the job within 10s of its response")
	}

	code, body := getBody(t, ts.URL+"/debug/flightrecorder")
	if code != 200 {
		t.Fatalf("flightrecorder = %d", code)
	}
	var d obs.Dump
	if err := json.Unmarshal([]byte(body), &d); err != nil {
		t.Fatalf("flight recorder snapshot is not JSON: %v", err)
	}
	if d.Reason != obs.ReasonRequest {
		t.Fatalf("snapshot reason = %q, want %q", d.Reason, obs.ReasonRequest)
	}
	if d.JobsSeen < 1 {
		t.Fatalf("snapshot saw %d jobs, want >= 1", d.JobsSeen)
	}
	found := false
	for _, r := range d.Jobs {
		if r.JobID == res.ID && r.State == string(jobq.StateDone) && r.TraceID == res.TraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("snapshot does not name job %s: %s", res.ID, body)
	}
}

// TestDaemonNaNTriggersFlightDump is the anomaly path end to end over
// HTTP: a NaN-poisoned solve fails the job AND leaves a flight-recorder
// dump file on disk naming that job.
func TestDaemonNaNTriggersFlightDump(t *testing.T) {
	dir := t.TempDir()
	ts, _ := newTestDaemon(t, jobq.Config{
		Run: poisonTenant(jobq.Solver(nil, nil), "chaos"),
		Obs: obs.New(obs.Config{FlightDir: dir}),
	})

	code, res, _ := postSolve(t, ts.URL, `{"class":"S","tenant":"chaos","wait":true}`)
	if code != http.StatusOK || res.State != jobq.StateFailed {
		t.Fatalf("poisoned solve: %d %+v, want a failed job", code, res)
	}

	// The job reports done before its observer hooks run: wait for the
	// dump itself, not for the response. A dump gets its final name only
	// once it is complete on disk.
	var dumps []string
	waitFor(t, func() bool {
		dumps, _ = filepath.Glob(filepath.Join(dir, "flight-*-"+obs.ReasonNonFinite+".json"))
		return len(dumps) > 0
	}, "a non-finite dump")
	path := dumps[0]
	files, err := filepath.Glob(filepath.Join(dir, "flight-*"))
	if err != nil || len(files) != 1 || files[0] != path {
		t.Fatalf("dump dir holds %v (err %v), want exactly the non-finite dump %s", files, err, path)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d obs.Dump
	if err := json.Unmarshal(blob, &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	found := false
	for _, r := range d.Jobs {
		if r.JobID == res.ID && r.NonFinite && r.TraceID == res.TraceID {
			found = true
		}
	}
	if !found {
		t.Fatalf("dump does not name the poisoned job %s: %s", res.ID, blob)
	}
}

// TestDaemonTraceSpanTree pins the whole point of trace propagation:
// with a tracer attached to both the queue and the solver, two
// concurrent jobs interleaving on shared workers yield — per job —
// exactly one connected span tree in the Perfetto export (all of a
// job's spans inside its own track block), with the queue-wait and
// solve stage spans non-overlapping.
func TestDaemonTraceSpanTree(t *testing.T) {
	var buf bytes.Buffer
	tr := metrics.NewTracer(&buf)
	o := obs.New(obs.Config{})
	ts, _ := newTestDaemon(t, jobq.Config{
		Runners: 2,
		Run:     jobq.NewSolver(jobq.SolverConfig{Trace: tr}),
		Trace:   tr,
		Obs:     o,
	})

	traces := []string{
		"11111111111111111111111111111111",
		"22222222222222222222222222222222",
	}
	done := make(chan error, len(traces))
	for i, id := range traces {
		i, id := i, id
		go func() {
			body := `{"class":"S","seed":` + []string{"101", "102"}[i] + `,"wait":true}`
			code, res, _ := postSolveTraced(t, ts.URL, body, id)
			if code != http.StatusOK || res.State != jobq.StateDone {
				t.Errorf("traced solve %d: %d %+v", i, code, res)
			}
			done <- nil
		}()
	}
	for range traces {
		<-done
	}
	// The respond-stage events are emitted just after the waiters wake,
	// and a job enters the flight recorder's ring just after its respond
	// event: wait for both jobs there before sealing.
	waitFor(t, func() bool {
		var snap bytes.Buffer
		var d obs.Dump
		return o.Recorder().WriteTo(&snap, "test") == nil &&
			json.Unmarshal(snap.Bytes(), &d) == nil && len(d.Jobs) == len(traces)
	}, "both jobs to finish")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	events, torn, err := metrics.ReadEventsTolerant(bytes.NewReader(buf.Bytes()))
	if err != nil || torn != 0 {
		t.Fatalf("reading the trace: %d torn lines, err %v", torn, err)
	}
	sum := metrics.Summarize(events)
	if sum.Traces != len(traces) {
		t.Fatalf("summary counts %d traces, want %d", sum.Traces, len(traces))
	}
	stageCount := map[string]int{}
	for _, s := range sum.Stages {
		stageCount[s.Stage] = s.Count
	}
	for _, stage := range []string{obs.StageIngress, obs.StageQueue, obs.StageSolve, obs.StageRespond} {
		if stageCount[stage] != len(traces) {
			t.Errorf("stage %s has %d spans, want one per job: %v", stage, stageCount[stage], sum.Stages)
		}
	}

	// Raw-event check: each job's queue span ends no later than its solve
	// span starts (span end stamp is T, start is T − ns).
	for _, id := range traces {
		var queueEnd, solveStart int64 = -1, -1
		for _, e := range events {
			if e.Trace != id || e.Ev != "stage" {
				continue
			}
			switch e.Stage {
			case obs.StageQueue:
				queueEnd = e.T
			case obs.StageSolve:
				solveStart = e.T - e.Nanos
			}
		}
		if queueEnd < 0 || solveStart < 0 {
			t.Fatalf("trace %s missing queue/solve stage spans", id)
		}
		if queueEnd > solveStart {
			t.Errorf("trace %s: queue span ends at %d, after its solve span starts at %d (overlap)",
				id, queueEnd, solveStart)
		}
	}

	// Perfetto check: every span of one trace lands in that trace's own
	// track block [base, base+stride) — one connected tree per job —
	// and the block carries both its stage spans and its kernel spans.
	ct := metrics.ChromeTraceAligned(events, nil)
	if err := ct.Validate(); err != nil {
		t.Fatal(err)
	}
	blocks := map[string]map[int]bool{}
	cats := map[string]map[string]bool{}
	for _, e := range ct.TraceEvents {
		id, _ := e.Args["trace"].(string)
		if id == "" {
			continue
		}
		if blocks[id] == nil {
			blocks[id] = map[int]bool{}
			cats[id] = map[string]bool{}
		}
		blocks[id][e.Tid] = true
		cats[id][e.Cat] = true
	}
	if len(blocks) != len(traces) {
		t.Fatalf("export has %d trace blocks, want %d", len(blocks), len(traces))
	}
	bases := map[int]bool{}
	for id, tids := range blocks {
		base := -1
		for tid := range tids {
			b := metrics.TidJobBase +
				metrics.TidJobStride*((tid-metrics.TidJobBase)/metrics.TidJobStride)
			if tid < metrics.TidJobBase {
				t.Fatalf("trace %s span on non-job tid %d", id, tid)
			}
			if base == -1 {
				base = b
			} else if base != b {
				t.Fatalf("trace %s spans two track blocks (%d and %d) — tree disconnected", id, base, b)
			}
		}
		if bases[base] {
			t.Fatalf("two traces share track block %d", base)
		}
		bases[base] = true
		if !cats[id]["stage"] || !cats[id]["region"] {
			t.Fatalf("trace %s block missing stage or kernel spans: %v", id, cats[id])
		}
	}
}

// The daemon's /metrics families — names, types and label names — are
// pinned in testdata/metrics.golden; values change from run to run.
func TestMetricsFamilies(t *testing.T) {
	finished := make(finishedSignal, 1)
	o := obs.New(obs.Config{Log: slog.New(finished)})
	col := metrics.NewCollector(1)
	q := jobq.New(jobq.Config{Runners: 1, Obs: o, Run: jobq.NewSolver(jobq.SolverConfig{Metrics: col, Obs: o})})
	s := &server{q: q, collector: col, obs: o, started: time.Now()}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(func() {
		ts.Close()
		q.Close()
	})
	if code, _, _ := postSolve(t, ts.URL, `{"class":"S","wait":true}`); code != http.StatusOK {
		t.Fatalf("solve = %d", code)
	}
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("observer did not record the job within 10s of its response")
	}
	_, body := getBody(t, ts.URL+"/metrics")
	samples, err := mgtest.ParsePrometheus(strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := mgtest.PromSchema(samples); got != string(want) {
		t.Errorf("exposed families differ from testdata/metrics.golden:\n%s", got)
	}
}
