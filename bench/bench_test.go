package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/jobq"
	"repro/internal/nas"
)

func TestManifestMatchesBench(t *testing.T) {
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.validate(); err != nil {
		t.Fatal(err)
	}
	// The limits the benchmark contract sets on the file itself.
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range m.Workloads {
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
	setup := false
	for _, d := range m.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if len(m.PerLayer) < 1 || len(m.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(m.PerLayer))
	}
	for _, name := range exactCounts {
		found := false
		for _, d := range perLayer {
			found = found || d.Name == name
		}
		if !found {
			t.Errorf("exact count %s is not a per-layer metric", name)
		}
	}
}

func TestValidateRefusesMismatches(t *testing.T) {
	load := func() *manifest {
		m, err := loadManifest()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	cases := map[string]func(m *manifest){
		"declared but never emitted": func(m *manifest) {
			m.PerLayer = append(m.PerLayer, manifestMetric{Name: "core.nonesuch_s", Unit: "s", Better: "lower"})
		},
		"emitted but not declared": func(m *manifest) { m.EndToEnd = m.EndToEnd[1:] },
		"bad name":                 func(m *manifest) { m.PerLayer[0].Name = "host triad/gbs" },
		"declared unit":            func(m *manifest) { m.EndToEnd[0].Unit = "ms" },
		"not implemented":          func(m *manifest) { m.Workloads[0].Name = "solve_B" },
	}
	for want, mutate := range cases {
		m := load()
		mutate(m)
		if err := m.validate(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("validate after %q: got %v", want, err)
		}
	}
	rep := newReport(endToEnd)
	rep.set("latency_ms", 1)
	if _, err := rep.finish(); err == nil || !strings.Contains(err.Error(), "not declared") ||
		!strings.Contains(err.Error(), "never measured") {
		t.Errorf("report accepted an undeclared and dropped the declared metrics: %v", err)
	}
}

// TestFailureAccounting feeds each correctness rule a wrong output: the
// operation must count as failed and its latency must not be sampled.
func TestFailureAccounting(t *testing.T) {
	tl := newTally()
	var check bitsChecker
	class := nas.ClassS
	good, _, _ := class.VerifyValue()

	tl.record(kindOp, 0.010, check.checkSolve("sac", class, good))
	// A wrong rnm2: outside the NPB tolerance, then inside it but not
	// bit-equal to the first solve.
	tl.record(kindOp, 0.001, check.checkSolve("sac", class, good*2))
	tl.record(kindOp, 0.001, check.checkSolve("sac", class, math.Nextafter(good, 1)))

	// A 429 is a failed request, as is a base reply without verified:true.
	svc := &serviceSection{class: class}
	verified := true
	done := jobq.Result{State: jobq.StateDone, Rnm2: good, Verified: &verified}
	tl.record(kindAlt, 0.002, svc.checkResponse(200, done, 0))
	tl.record(kindAlt, 0.0001, svc.checkResponse(429, jobq.Result{}, 0))
	tl.record(kindAlt, 0.0001, svc.checkResponse(200, jobq.Result{State: jobq.StateDone, Rnm2: good}, 0))
	svc.expected = map[uint64]uint64{7: math.Float64bits(1.5)}
	tl.record(kindOp, 0.001, svc.checkResponse(200, jobq.Result{State: jobq.StateDone, Rnm2: 2.5}, 7))

	// A 2-rank norm that differs from the 1-rank solve's.
	want := math.Float64bits(good)
	tl.record(kindOp, 0.020, checkRanks([]rankRun{{rnm2: good}, {rnm2: good}}, want))
	tl.record(kindOp, 0.001, checkRanks([]rankRun{{rnm2: good}, {rnm2: math.Nextafter(good, 1)}}, want))

	if tl.attempted != 9 || tl.failed != 6 {
		t.Errorf("attempted %d failed %d, want 9 and 6", tl.attempted, tl.failed)
	}
	if got := tl.samples[kindOp]; len(got) != 2 || got[0] != 0.010 || got[1] != 0.020 {
		t.Errorf("op samples %v: the failed operations' latencies must be excluded", got)
	}
	if got := tl.samples[kindAlt]; len(got) != 1 || got[0] != 0.002 {
		t.Errorf("alt samples %v: the failed requests' latencies must be excluded", got)
	}
	if tl.firstErr == nil {
		t.Error("no error kept for the report")
	}
	// With nothing but failures no metric is measured and the run is incorrect.
	bad := newTally()
	bad.fail(io.ErrUnexpectedEOF)
	rep := newReport(endToEnd)
	emitEndToEnd(rep, bad, 1, 1)
	if res, err := finishRun(rep, bad); err == nil || res.Correct || res.Failed != 1 {
		t.Errorf("a run of failures reported %+v, %v", res, err)
	}
}

func tinyConfig(t *testing.T) config {
	dir := t.TempDir()
	return config{seed: 5, seconds: 0.2, tiny: true, buildDir: dir, outDir: filepath.Join(dir, "out")}
}

// TestSmokeAllWorkloads runs every workload in tiny mode (class S, short
// passes), untraced and traced, and checks the result's shape against
// BENCHMARK.json, the span tree, and the cross-checks between layers.
func TestSmokeAllWorkloads(t *testing.T) {
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig(t)
	shape := func(res result, declared []manifestMetric) {
		t.Helper()
		line, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
			t.Fatalf("result line has keys %v, want correct, attempted, failed, metrics", keys)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("correct %v attempted %d failed %d", res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(declared) {
			t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(declared))
		}
		for _, d := range declared {
			if got, ok := res.Metrics[d.Name]; !ok || got.Unit != d.Unit {
				t.Errorf("metric %s: got %+v, want unit %s", d.Name, got, d.Unit)
			}
		}
	}
	for _, w := range workloads {
		res, err := runUntraced(w, cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		shape(res, m.EndToEnd)
		for name, v := range res.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, v.Value)
			}
		}

		res, err = runTraced(w, cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		shape(res, m.PerLayer)
		val := func(name string) float64 { return res.Metrics[name].Value }
		// The collector's rows must explain what a call costs from outside.
		if a := val("core.direct.agreement"); a < 0.8 || a > 1.0001 {
			t.Errorf("%s: collector rows cover %.3f of the direct calls, want within 20%%", w.name, a)
		}
		if c := val("core.coverage"); c < 0.8 || c > 1.0001 {
			t.Errorf("%s: core.coverage %.3f", w.name, c)
		}
		if r := val("jobq.stage.sum_over_total"); math.Abs(r-1) > 0.05 {
			t.Errorf("%s: jobq stages sum to %.3f of stages.total, want within 5%%", w.name, r)
		}
		for _, d := range perLayer {
			if d.Unit == "s" && val(d.Name) <= 0 {
				t.Errorf("%s: %s = %v, a time must be measured", w.name, d.Name, val(d.Name))
			}
		}

		blob, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(blob, &tf); err != nil {
			t.Fatal(err)
		}
		if tf.Workload != w.name || len(tf.Spans) == 0 {
			t.Fatalf("trace file for %s holds workload %q, %d spans", w.name, tf.Workload, len(tf.Spans))
		}
		self, err := selfTimes(tf.Spans)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		kids := 0
		for _, s := range tf.Spans {
			if self[s.ID] < 0 {
				t.Errorf("%s: span %d (%s) has self time %d", w.name, s.ID, s.Name, self[s.ID])
			}
			if s.Parent != 0 {
				kids++
			}
		}
		if kids == 0 {
			t.Errorf("%s: no span has a parent", w.name)
		}
	}
}

// TestDaemonThatFailsToStart: a daemon that exits at once is reported
// within the deadline as failed operations, not waited for.
func TestDaemonThatFailsToStart(t *testing.T) {
	bin, err := filepath.Abs(filepath.Join(t.TempDir(), "mgd"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bin, []byte("#!/bin/sh\necho 'listen failed' >&2\nexit 1\n"), 0o755); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = startDaemon(bin)
	if err == nil || !strings.Contains(err.Error(), "listen failed") {
		t.Fatalf("startDaemon: %v, want the daemon's own message", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("waited %v for a daemon that had already exited", waited)
	}
	total := newTally()
	total.fail(err)
	if res, err := finishRun(newReport(endToEnd), total); res.Correct || res.Failed < 1 || err == nil {
		t.Errorf("a start failure reported %+v", res)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// TestAgreeJudgesBothDirections: two sets of the same tree disagree when
// the second median is off by more than the bound either way, or when a
// set's own spread exceeds the bound (setup_s excepted).
func TestAgreeJudgesBothDirections(t *testing.T) {
	set := func(centre float64) []float64 {
		vals := make([]float64, agreeRuns)
		for i := range vals {
			vals[i] = centre * (1 + 0.001*float64(i))
		}
		return vals
	}
	wide := []float64{60, 70, 80, 90, 100, 100, 110, 120, 130, 140}
	cases := []struct {
		name         string
		first, again []float64
		higher       bool
		spreadCounts bool
		wantOK       bool
	}{
		{"same", set(100), set(101), false, true, true},
		{"slower", set(100), set(130), false, true, false},
		{"faster", set(100), set(70), false, true, false},
		{"higher rate", set(100), set(130), true, true, false},
		{"wide set", wide, wide, false, true, false},
		{"wide set-up", wide, wide, false, false, true},
	}
	for _, c := range cases {
		r := agreeRow{Bound: 0.1, Values: [][]float64{c.first, c.again}}
		r.judge(c.higher, c.spreadCounts)
		if r.OK != c.wantOK {
			t.Errorf("%s: ok=%v (gap %+.3f, spreads %.3f), want %v", c.name, r.OK, r.Gap, r.Spreads, c.wantOK)
		}
	}
}

func TestSelfTimesRejectsBrokenTrees(t *testing.T) {
	ok := []span{{ID: 1, End: 100}, {ID: 2, Parent: 1, Start: 10, End: 40}, {ID: 3, Parent: 1, Start: 30, End: 60}}
	self, err := selfTimes(ok)
	if err != nil || self[1] != 50 {
		t.Errorf("self time %v, %v; want 50 (children overlap 30..40)", self[1], err)
	}
	for name, bad := range map[string][]span{
		"orphan":      {{ID: 1, Parent: 9, End: 5}},
		"outside":     {{ID: 1, End: 10}, {ID: 2, Parent: 1, Start: 5, End: 11}},
		"never ended": {{ID: 1, Start: 5, End: -1}},
	} {
		if _, err := selfTimes(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
