package main

import (
	"encoding/json"
	"errors"
	"expvar"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/mgtest"
	"repro/internal/nas"
	wl "repro/internal/withloop"
)

// solveWithObs runs a class-S SAC solve with the shared sink set
// attached, the way main does.
func solveWithObs(t *testing.T, o *obs, threads int) (rnm2 float64) {
	t.Helper()
	var env *wl.Env
	if threads > 1 {
		env = wl.Parallel(threads)
	} else {
		env = wl.Default()
	}
	o.attach(env)
	b := core.NewBenchmark(nas.ClassS, env)
	b.Reset()
	rnm2, _ = b.Solve()
	env.Close()
	if verified, ok := nas.ClassS.Verify(rnm2); !ok || !verified {
		t.Fatalf("instrumented solve did not verify: rnm2 = %.13e", rnm2)
	}
	return rnm2
}

// The expvar "mg.metrics" variable and the written report must describe
// the same collector: every flag combination shares one instance, so the
// two exposition paths may never disagree.
func TestExpvarMatchesReport(t *testing.T) {
	o := &obs{collector: metrics.NewCollector(2)}
	publishMetricsVar(o.collector)
	solveWithObs(t, o, 2)

	v := expvar.Get("mg.metrics")
	if v == nil {
		t.Fatal("mg.metrics not published")
	}
	var fromVar metrics.Snapshot
	if err := json.Unmarshal([]byte(v.String()), &fromVar); err != nil {
		t.Fatalf("mg.metrics is not a snapshot: %v", err)
	}
	direct := o.snapshot()
	if len(fromVar.Kernels) == 0 || len(fromVar.Kernels) != len(direct.Kernels) {
		t.Fatalf("expvar has %d kernel rows, report has %d",
			len(fromVar.Kernels), len(direct.Kernels))
	}
	for i, k := range direct.Kernels {
		got := fromVar.Kernels[i]
		if got.Kernel != k.Kernel || got.Level != k.Level ||
			got.Invocations != k.Invocations || got.Points != k.Points {
			t.Fatalf("row %d differs: expvar %+v, report %+v", i, got, k)
		}
	}

	// Re-pointing at a fresh collector must not panic (expvar forbids
	// duplicate registration) and must switch the variable over.
	c2 := metrics.NewCollector(1)
	publishMetricsVar(c2)
	var after metrics.Snapshot
	if err := json.Unmarshal([]byte(expvar.Get("mg.metrics").String()), &after); err != nil {
		t.Fatal(err)
	}
	if len(after.Kernels) != 0 {
		t.Fatalf("mg.metrics still serves the old collector: %d rows", len(after.Kernels))
	}
}

// The /metrics endpoint must emit parseable Prometheus text format with
// both the kernel series and the health series, sourced from the same
// run the JSON summary describes.
func TestPromEndpointRoundTrip(t *testing.T) {
	o := &obs{
		collector: metrics.NewCollector(2),
		monitor:   health.New(),
	}
	solveWithObs(t, o, 2)

	srv := httptest.NewServer(promHandler(o))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q is not Prometheus text format", ct)
	}
	samples, err := mgtest.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("endpoint output does not round-trip: %v", err)
	}
	idx := mgtest.PromIndex(samples)
	for _, name := range []string{
		"mg_kernel_invocations_total",
		"mg_kernel_duration_seconds_bucket",
		"mg_health_verdict",
		"mg_health_convergence_rate",
		"mg_health_worker_imbalance",
	} {
		if len(idx[name]) == 0 {
			t.Fatalf("endpoint is missing %s", name)
		}
	}
	// The verdict state series marks exactly one verdict, and for a
	// verified class-S run it must be "healthy".
	var active []string
	for _, s := range idx["mg_health_verdict"] {
		if s.Value == 1 {
			active = append(active, s.Label("verdict"))
		}
	}
	if len(active) != 1 || active[0] != "healthy" {
		t.Fatalf("active verdicts = %v, want [healthy]", active)
	}
	// Endpoint and report agree on the invocation totals.
	direct := o.snapshot()
	var fromProm, fromSnap uint64
	for _, s := range idx["mg_kernel_invocations_total"] {
		fromProm += uint64(s.Value)
	}
	for _, k := range direct.Kernels {
		fromSnap += k.Invocations
	}
	if fromProm != fromSnap {
		t.Fatalf("endpoint totals %d invocations, snapshot %d", fromProm, fromSnap)
	}
	// The families, their types and label names are pinned.
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := mgtest.PromSchema(samples); got != string(want) {
		t.Errorf("exposed families differ from testdata/metrics.golden:\n%s", got)
	}
}

// The -json health block for a verified run: healthy verdict, a
// convergence rate consistent with the observed norms, balanced workers.
func TestHealthReportFromSolve(t *testing.T) {
	o := &obs{
		collector: metrics.NewCollector(2),
		monitor:   health.New(),
	}
	solveWithObs(t, o, 2)
	rep := o.healthReport()
	if rep.Verdict != "healthy" {
		t.Fatalf("verdict = %q, want healthy", rep.Verdict)
	}
	if rep.Iterations != nas.ClassS.Iter {
		t.Fatalf("observed %d iterations, want %d", rep.Iterations, nas.ClassS.Iter)
	}
	if rep.ConvergenceRate <= 0 || rep.ConvergenceRate >= rep.ExpectedRate {
		t.Fatalf("convergence rate %g not in (0, %g)", rep.ConvergenceRate, rep.ExpectedRate)
	}
	if rep.WorkerImbalance < 1 {
		t.Fatalf("worker imbalance %g < 1 (max/mean cannot be)", rep.WorkerImbalance)
	}
	if len(rep.Workers) != 2 {
		t.Fatalf("report has %d workers, want 2", len(rep.Workers))
	}
	// A disabled monitor must say so rather than fabricate a verdict.
	if rep := (&obs{}).healthReport(); rep.Verdict != "disabled" {
		t.Fatalf("nil monitor verdict = %q", rep.Verdict)
	}
}

// Rejected invocations are one-line usage errors with exit status 2, never
// a Go panic: an unknown -mode whatever the thread count (it used to pass
// silently on a sequential run, where the mode has no effect), and an mpi
// rank count the decomposition cannot take.
func TestUnknownModeRejected(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "mg")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct {
		args string
		want string
	}{
		{"-impl f77 -threads 1 -mode bogus", "unknown -mode bogus"},
		{"-impl f77 -threads 2 -mode bogus", "unknown -mode bogus"},
		{"-impl mpi -threads 3", "mg: -impl mpi runs -threads ranks, a power of two from 1 to 16 at class S; got 3"},
		{"-impl mpi -threads 0", "mg: -impl mpi runs -threads ranks, a power of two from 1 to 16 at class S; got 0"},
		{"-impl sac -threads 0", "mg: -threads must be at least 1; got 0"},
		{"-impl sac -threads -1", "mg: -threads must be at least 1; got -1"},
		{"-impl f77 -threads 0", "mg: -threads must be at least 1; got 0"},
		{"-impl f77 -threads -1", "mg: -threads must be at least 1; got -1"},
		{"-impl c -threads 0", "mg: -threads must be at least 1; got 0"},
		{"-impl c -threads -1", "mg: -threads must be at least 1; got -1"},
		{"-impl periodic -threads 0", "mg: -threads must be at least 1; got 0"},
		{"-impl periodic -threads -1", "mg: -threads must be at least 1; got -1"},
		{"-impl sac -overlap", "mg: -overlap applies only to -impl mpi; got -impl sac"},
	} {
		out, err := exec.Command(bin, append([]string{"-class", "S"}, strings.Fields(c.args)...)...).CombinedOutput()
		got := strings.TrimSpace(string(out))
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || strings.Contains(got, "\n") ||
			!strings.Contains(got, c.want) || strings.Contains(got, "panic:") {
			t.Errorf("%s: %v, output %q; want exit status 2 and the one line %q", c.args, err, out, c.want)
		}
	}
	if out, err := exec.Command(bin, "-impl", "f77", "-class", "S", "-mode", "serial", "-quiet").CombinedOutput(); err != nil {
		t.Errorf("-mode serial: %v\n%s", err, out)
	}
}
