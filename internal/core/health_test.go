package core

import (
	"math"
	"testing"

	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/nas"
	wl "repro/internal/withloop"
)

// healthSolve runs a class-S solve with a fresh monitor attached and
// returns the monitor plus the final norms.
func healthSolve(t *testing.T, workers int) (*health.Monitor, float64, float64) {
	t.Helper()
	var env *wl.Env
	if workers > 1 {
		env = wl.Parallel(workers)
	} else {
		env = wl.Default()
	}
	defer env.Close()
	m := health.New()
	env.Health = m
	b := NewBenchmark(nas.ClassS, env)
	b.Reset()
	rnm2, rnmu := b.Solve()
	return m, rnm2, rnmu
}

// A verified class-S run must come out healthy, with the geometric-mean
// convergence rate matching the observed first/last residuals (the
// per-ratio product telescopes) and staying well under the expected MG
// contraction bound.
func TestHealthyRunReportsConvergenceRate(t *testing.T) {
	m, rnm2, _ := healthSolve(t, 1)
	if verified, ok := nas.ClassS.Verify(rnm2); !ok || !verified {
		t.Fatalf("monitored solve did not verify: rnm2 = %.13e", rnm2)
	}
	rep := m.Report(metrics.Snapshot{})
	if rep.Verdict != "healthy" {
		t.Fatalf("verdict = %q, want healthy", rep.Verdict)
	}
	if rep.Iterations != nas.ClassS.Iter {
		t.Fatalf("observed %d contraction ratios, want %d", rep.Iterations, nas.ClassS.Iter)
	}
	want := math.Pow(rep.LastResidual/rep.FirstResidual, 1/float64(rep.Iterations))
	if diff := math.Abs(rep.ConvergenceRate - want); diff > 1e-12 {
		t.Fatalf("rate %.17g, telescoped %.17g (diff %g)", rep.ConvergenceRate, want, diff)
	}
	if rep.ConvergenceRate >= rep.ExpectedRate {
		t.Fatalf("rate %g not under expected bound %g", rep.ConvergenceRate, rep.ExpectedRate)
	}
}

// Attaching the monitor must not change the computed norms: the folded
// subRelaxNorm writes the same grid bit for bit, and the sampling guard
// only reads.
func TestHealthMonitorPreservesNorms(t *testing.T) {
	env := wl.Default()
	b := NewBenchmark(nas.ClassS, env)
	b.Reset()
	wantN2, wantNu := b.Solve()
	env.Close()

	_, rnm2, rnmu := healthSolve(t, 1)
	if rnm2 != wantN2 || rnmu != wantNu {
		t.Fatalf("monitored solve norms %.17e/%.17e, bare %.17e/%.17e",
			rnm2, rnmu, wantN2, wantNu)
	}
}

// A NaN poisoned into a fused kernel's output mid-solve must flip the
// verdict to nonfinite within the iteration it appears in: the strided
// sample guard runs inside every fused kernel invocation.
func TestInjectedNaNFlaggedWithinOneIteration(t *testing.T) {
	env := wl.Default()
	defer env.Close()
	m := health.New()
	env.Health = m

	// The iteration residual is folded once per iteration, before the
	// iteration's V-cycle, so counting the folds tracks the iteration.
	const poisonAt = 2
	var iter int
	var poisoned bool
	testFaultNorm = func(sumSq float64) float64 {
		iter++
		return sumSq
	}
	testFaultGrid = func(kernel string, level int, data []float64) {
		if iter == poisonAt && !poisoned && len(data) > 0 {
			data[0] = math.NaN()
			poisoned = true
		}
	}
	defer func() { testFaultGrid, testFaultNorm = nil, nil }()

	b := NewBenchmark(nas.ClassS, env)
	b.Reset()
	b.Solve()

	if !poisoned {
		t.Fatal("fault hook never fired")
	}
	rep := m.Report(metrics.Snapshot{})
	if rep.Verdict != "non-finite" {
		t.Fatalf("verdict = %q, want non-finite", rep.Verdict)
	}
	if rep.VerdictIteration != poisonAt {
		t.Fatalf("flagged at iteration %d, poisoned at %d", rep.VerdictIteration, poisonAt)
	}
	if rep.NonFinite == 0 || rep.NonFiniteKernel == "" {
		t.Fatalf("report names no kernel: %+v", rep)
	}
}

// Freezing the residual norm (the artificial stall: every iteration
// reports the same residual) must be flagged as a stall on the first
// repeated observation.
func TestInjectedStallFlaggedWithinOneIteration(t *testing.T) {
	env := wl.Default()
	defer env.Close()
	m := health.New()
	env.Health = m

	var frozen float64
	testFaultNorm = func(sumSq float64) float64 {
		if frozen == 0 {
			frozen = sumSq
		}
		return frozen
	}
	defer func() { testFaultNorm = nil }()

	b := NewBenchmark(nas.ClassS, env)
	b.Reset()
	b.Solve()

	rep := m.Report(metrics.Snapshot{})
	if rep.Verdict != "stalled" {
		t.Fatalf("verdict = %q, want stalled", rep.Verdict)
	}
	// Iteration 1 stores the first norm; iteration 2 is the first
	// repeat, and the verdict must land there — within one iteration.
	if rep.VerdictIteration != 2 {
		t.Fatalf("stall flagged at iteration %d, want 2", rep.VerdictIteration)
	}
}

// The monitor must see exactly one residual observation per iteration —
// the finest-grid iteration residual — not the folded interior ones.
func TestMonitorSeesOneResidualPerIteration(t *testing.T) {
	m, _, _ := healthSolve(t, 2)
	rep := m.Report(metrics.Snapshot{})
	if rep.Iterations != nas.ClassS.Iter {
		t.Fatalf("iterations = %d, want %d", rep.Iterations, nas.ClassS.Iter)
	}
	// The final ObserveFinal(rnm2) must agree with the last in-loop
	// residual: same subtraction, same norm.
	if rep.LastResidual == 0 || math.IsNaN(rep.LastResidual) {
		t.Fatalf("last residual %g", rep.LastResidual)
	}
}
