package health

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/metrics"
)

// feed runs one synthetic solve over the given per-iteration norms
// (iteration i observes norms[i] at its start, NPB style), returning the
// monitor.
func feed(m *Monitor, norms []float64) {
	for i, norm := range norms {
		m.BeginIteration(i + 1)
		if m.WantsResid() {
			// ObserveResidual takes the interior sum of squares over
			// points; invert the rnm2 convention for a 1-point grid.
			m.ObserveResidual(norm*norm, 1)
		}
	}
}

func TestHealthyContraction(t *testing.T) {
	m := New()
	// A clean 0.2-per-iteration contraction, like the verified class-S run.
	feed(m, []float64{1, 0.2, 0.04, 0.008})
	m.ObserveFinal(0.0016, 0.0008)
	r := m.Report(metrics.Snapshot{})
	if r.Verdict != "healthy" {
		t.Fatalf("verdict = %s, want healthy", r.Verdict)
	}
	if math.Abs(r.ConvergenceRate-0.2) > 1e-12 {
		t.Fatalf("convergence rate = %g, want 0.2", r.ConvergenceRate)
	}
	if r.Iterations != 4 {
		t.Fatalf("iterations = %d, want 4", r.Iterations)
	}
	if r.VerdictIteration != 0 {
		t.Fatalf("healthy run has verdict iteration %d", r.VerdictIteration)
	}
}

func TestStallDetectedWithinOneIteration(t *testing.T) {
	m := New()
	// Contraction freezes at iteration 4: the norm stops moving while
	// still far above the floating-point floor.
	feed(m, []float64{1, 0.2, 0.04, 0.04})
	r := m.Report(metrics.Snapshot{})
	if r.Verdict != "stalled" {
		t.Fatalf("verdict = %s, want stalled", r.Verdict)
	}
	if r.VerdictIteration != 4 {
		t.Fatalf("stall flagged at iteration %d, want 4 (within one iteration)", r.VerdictIteration)
	}
}

func TestDivergenceDetected(t *testing.T) {
	m := New()
	feed(m, []float64{1, 0.2, 0.4})
	r := m.Report(metrics.Snapshot{})
	if r.Verdict != "diverging" {
		t.Fatalf("verdict = %s, want diverging", r.Verdict)
	}
	if r.VerdictIteration != 3 {
		t.Fatalf("divergence flagged at iteration %d, want 3", r.VerdictIteration)
	}
}

func TestUnhealthyVerdictSticks(t *testing.T) {
	m := New()
	// A divergence followed by good ratios must stay flagged.
	feed(m, []float64{1, 2, 0.2, 0.04})
	r := m.Report(metrics.Snapshot{})
	if r.Verdict != "diverging" {
		t.Fatalf("verdict = %s, want diverging (sticky)", r.Verdict)
	}
	if r.VerdictIteration != 2 {
		t.Fatalf("verdict iteration = %d, want 2", r.VerdictIteration)
	}
}

func TestFloorGuardSuppressesStall(t *testing.T) {
	m := New()
	// The measured class-W tail: the residual reaches the floating-point
	// floor (~3e-16 of the first residual) and its ratios flatten to ~1.
	// That is convergence, not a stall.
	feed(m, []float64{1, 1e-6, 1e-12, 2.5e-16, 2.5e-16, 2.51e-16})
	r := m.Report(metrics.Snapshot{})
	if r.Verdict != "converged" {
		t.Fatalf("verdict = %s, want converged (floor guard)", r.Verdict)
	}
}

func TestNonFiniteResidual(t *testing.T) {
	m := New()
	m.BeginIteration(1)
	m.ObserveResidual(math.NaN(), 1)
	r := m.Report(metrics.Snapshot{})
	if r.Verdict != "non-finite" {
		t.Fatalf("verdict = %s, want non-finite", r.Verdict)
	}
	if r.VerdictIteration != 1 {
		t.Fatalf("verdict iteration = %d, want 1", r.VerdictIteration)
	}
}

func TestNonFiniteSample(t *testing.T) {
	m := New()
	m.BeginIteration(2)
	m.ObserveNonFinite("addRelax", 5)
	r := m.Report(metrics.Snapshot{})
	if r.Verdict != "non-finite" {
		t.Fatalf("verdict = %s, want non-finite", r.Verdict)
	}
	if r.NonFiniteKernel != "addRelax" || r.NonFiniteLevel != 5 {
		t.Fatalf("fault site = %s@%d, want addRelax@5", r.NonFiniteKernel, r.NonFiniteLevel)
	}
	if r.NonFinite != 1 {
		t.Fatalf("non-finite count = %d, want 1", r.NonFinite)
	}
}

func TestBeginIterationResetsRun(t *testing.T) {
	m := New()
	feed(m, []float64{1, 0.2, 0.4}) // diverging run
	if v := m.Report(metrics.Snapshot{}).Verdict; v != "diverging" {
		t.Fatalf("first run verdict = %s, want diverging", v)
	}
	feed(m, []float64{1, 0.2, 0.04}) // fresh healthy run on the same monitor
	r := m.Report(metrics.Snapshot{})
	if r.Verdict != "healthy" {
		t.Fatalf("second run verdict = %s, want healthy after reset", r.Verdict)
	}
	if r.Iterations != 2 {
		t.Fatalf("second run iterations = %d, want 2", r.Iterations)
	}
}

func TestWantsResidOncePerIteration(t *testing.T) {
	m := New()
	m.BeginIteration(1)
	if !m.WantsResid() {
		t.Fatal("WantsResid false at iteration start")
	}
	m.ObserveResidual(1, 1)
	if m.WantsResid() {
		t.Fatal("WantsResid true after the iteration residual was observed")
	}
	m.BeginIteration(2)
	if !m.WantsResid() {
		t.Fatal("WantsResid false after BeginIteration")
	}
}

func TestImbalanceFromSnapshot(t *testing.T) {
	snap := metrics.Snapshot{Workers: []metrics.WorkerStat{
		{Worker: 0, Loops: 10, BusyNanos: 3e9},
		{Worker: 1, Loops: 10, BusyNanos: 1e9},
	}}
	m := New()
	feed(m, []float64{1, 0.2})
	r := m.Report(snap)
	// max 3s over mean 2s.
	if math.Abs(r.WorkerImbalance-1.5) > 1e-12 {
		t.Fatalf("imbalance = %g, want 1.5", r.WorkerImbalance)
	}
	if len(r.Workers) != 2 {
		t.Fatalf("worker rows = %d, want 2", len(r.Workers))
	}
	if math.Abs(r.Workers[0].Share-0.75) > 1e-12 {
		t.Fatalf("worker 0 share = %g, want 0.75", r.Workers[0].Share)
	}
	if imbalance(nil) != 0 {
		t.Fatal("Imbalance(nil) != 0")
	}
}

func TestNilMonitorSafe(t *testing.T) {
	var m *Monitor
	m.BeginIteration(1)
	if m.WantsResid() {
		t.Fatal("nil monitor wants a residual")
	}
	m.ObserveResidual(1, 1)
	m.ObserveFinal(1, 1)
	m.ObserveNonFinite("x", 0)
	if m.SampleStride() != 0 {
		t.Fatal("nil monitor has a sample stride")
	}
	if r := m.Report(metrics.Snapshot{}); r.Verdict != "disabled" {
		t.Fatalf("nil monitor verdict = %s, want disabled", r.Verdict)
	}
}

func TestNilMonitorZeroAlloc(t *testing.T) {
	var m *Monitor
	allocs := testing.AllocsPerRun(100, func() {
		m.BeginIteration(1)
		_ = m.WantsResid()
		m.ObserveResidual(1, 1)
		m.ObserveFinal(1, 1)
		m.ObserveNonFinite("x", 0)
		_ = m.SampleStride()
	})
	if allocs != 0 {
		t.Fatalf("nil monitor hooks allocate %.1f per run, want 0", allocs)
	}
}

// A live monitor samples at SampleStride and reports ExpectedRate; the
// calibration itself is pinned by the stall, divergence and floor tests.
func TestConfigDefaults(t *testing.T) {
	m := New()
	if got := m.SampleStride(); got != SampleStride {
		t.Fatalf("SampleStride() = %d, want %d", got, SampleStride)
	}
	if got := m.Report(metrics.Snapshot{}).ExpectedRate; got != ExpectedRate {
		t.Fatalf("report expected rate = %g, want %g", got, ExpectedRate)
	}
}

func TestVerdictStrings(t *testing.T) {
	want := []string{"unknown", "healthy", "converged", "stalled", "diverging", "non-finite"}
	got := verdicts()
	if len(got) != len(want) {
		t.Fatalf("Verdicts() has %d entries, want %d", len(got), len(want))
	}
	for i, v := range got {
		if v.String() != want[i] {
			t.Fatalf("verdict %d = %s, want %s", i, v, want[i])
		}
	}
}

func TestWriteText(t *testing.T) {
	m := New()
	feed(m, []float64{1, 0.2, 0.04})
	var buf bytes.Buffer
	m.Report(metrics.Snapshot{Workers: []metrics.WorkerStat{
		{Worker: 0, Loops: 4, BusyNanos: 1e9},
		{Worker: 1, Loops: 4, BusyNanos: 1e9},
	}}).WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"verdict: healthy", "convergence rate: 0.2000", "worker imbalance: 1.000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text report missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	m := New()
	feed(m, []float64{1, 0.2, 0.04})
	var buf bytes.Buffer
	m.Report(metrics.Snapshot{}).WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`mg_health_verdict{verdict="healthy"} 1`,
		`mg_health_verdict{verdict="stalled"} 0`,
		"mg_health_iterations_total 2",
		"mg_health_convergence_rate 0.",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}
