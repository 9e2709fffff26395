// End-to-end trace-analysis test: one instrumented 2-worker solve feeds
// both exposition paths — the metrics collector and the JSON-lines trace
// analysed by cmd/mgtrace's library (metrics.Summarize /
// metrics.ChromeTraceAligned) — and the two views must agree: the trace's
// solve span is the very measurement the collector's "solve" row holds,
// the fused-kernel rows nest inside the region spans which nest inside
// the solve, and the Perfetto conversion is schema-valid.
package repro

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/nas"
	wl "repro/internal/withloop"
)

// tracedSolve runs one fully instrumented solve (collector + tracer +
// health monitor, 2 workers) and returns both views.
func tracedSolve(t *testing.T, class nas.Class) (metrics.Snapshot, []metrics.Event, *health.Monitor) {
	t.Helper()
	var buf bytes.Buffer
	env := wl.Parallel(2)
	defer env.Close()
	collector := metrics.NewCollector(env.Workers())
	tracer := metrics.NewTracer(&buf)
	monitor := health.New()
	env.AttachMetrics(collector)
	env.AttachTrace(tracer)
	env.Health = monitor

	b := core.NewBenchmark(class, env)
	b.Reset()
	rnm2, _ := b.Solve()
	if verified, ok := class.Verify(rnm2); !ok || !verified {
		t.Fatalf("instrumented class-%c solve did not verify: rnm2 = %.13e",
			class.Name, rnm2)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	events, torn, err := metrics.ReadEventsTolerant(&buf)
	if err != nil || torn != 0 {
		t.Fatalf("reading the trace: %d torn lines, err %v", torn, err)
	}
	return collector.Snapshot(), events, monitor
}

func TestTraceAgreesWithMetrics(t *testing.T) {
	class := nas.ClassW
	if testing.Short() {
		class = nas.ClassS
	}
	snap, events, monitor := tracedSolve(t, class)
	sum := metrics.Summarize(events)

	// The solve span in the trace and the "solve" row in the collector
	// are the same time.Since call (core.observedSolve), so they agree
	// exactly — the strongest form of "the views describe one run".
	var solveRow int64
	for _, k := range snap.Kernels {
		if k.Kernel == metrics.TotalKernel {
			solveRow = int64(k.Nanos)
		}
	}
	if solveRow == 0 || sum.SolveNanos != solveRow {
		t.Fatalf("trace solve span %d ns, metrics solve row %d ns", sum.SolveNanos, solveRow)
	}
	if sum.Iters != class.Iter {
		t.Fatalf("trace has %d iter markers, want %d", sum.Iters, class.Iter)
	}

	// Containment: the fused kernels run inside the traced region spans,
	// which run inside the solve. Timer noise only ever pushes the inner
	// sums up, so allow slack below but require the ordering.
	var kernelNanos int64
	for _, k := range snap.Kernels {
		if k.Kernel != metrics.TotalKernel {
			kernelNanos += int64(k.Nanos)
		}
	}
	var spanNanos int64
	for _, sp := range sum.Spans {
		spanNanos += sp.Nanos
	}
	if spanNanos > sum.SolveNanos*11/10 {
		t.Fatalf("region spans %d ns exceed solve %d ns by >10%%", spanNanos, sum.SolveNanos)
	}
	// The per-kernel rows must explain the bulk of the solve (the
	// repository's coverage invariant), and so must the region spans.
	if frac, ok := snap.Coverage(); !ok || frac < 0.6 {
		t.Fatalf("kernel coverage %.2f below 0.6 (ok=%v)", frac, ok)
	}
	if spanNanos < sum.SolveNanos*6/10 {
		t.Fatalf("region spans cover %d of %d ns — below 60%%", spanNanos, sum.SolveNanos)
	}
	// kernels ⊂ spans up to disjoint-window slack: fused kernel time not
	// under any region span is only comm3/genarray, so the span total
	// cannot be dwarfed by the kernel total.
	if kernelNanos > spanNanos*13/10 {
		t.Fatalf("fused kernels %d ns vs region spans %d ns — containment broken",
			kernelNanos, spanNanos)
	}

	// Worker view: both workers appear in the trace's wspan events.
	if len(sum.Workers) != 2 {
		t.Fatalf("trace saw %d workers, want 2: %+v", len(sum.Workers), sum.Workers)
	}
	if sum.WorkerImbalance < 1 {
		t.Fatalf("worker imbalance %g < 1", sum.WorkerImbalance)
	}

	// The health monitor watched the same run.
	rep := monitor.Report(snap)
	if !rep.OK() {
		t.Fatalf("healthy verified run reported %q", rep.Verdict)
	}
	if rep.LastResidual != sum.FinalRnm2 {
		t.Fatalf("health last residual %.17e, trace solve rnm2 %.17e",
			rep.LastResidual, sum.FinalRnm2)
	}
}

func TestTraceConvertsToValidPerfetto(t *testing.T) {
	class := nas.ClassW
	if testing.Short() {
		class = nas.ClassS
	}
	_, events, _ := tracedSolve(t, class)
	ct := metrics.ChromeTraceAligned(events, nil)
	if err := ct.Validate(); err != nil {
		t.Fatalf("real-run trace converts to invalid Chrome JSON: %v", err)
	}
	// One process (rank 0), with solve, level and worker tracks present.
	var solveSpans, levelTracks, workerTracks int
	for _, e := range ct.TraceEvents {
		if e.Pid != 0 {
			t.Fatalf("single-process run produced pid %d", e.Pid)
		}
		switch {
		case e.Ph == "X" && e.Tid == metrics.TidSolve:
			solveSpans++
		case e.Ph == "M" && e.Name == "thread_name" && e.Tid >= metrics.TidWorkerBase:
			workerTracks++
		case e.Ph == "M" && e.Name == "thread_name" &&
			e.Tid >= metrics.TidLevelBase && e.Tid < metrics.TidWorkerBase:
			levelTracks++
		}
	}
	if solveSpans != 1 {
		t.Fatalf("%d solve spans on the solve track, want 1", solveSpans)
	}
	if levelTracks < 2 || workerTracks != 2 {
		t.Fatalf("tracks: %d level, %d worker — want ≥2 level and exactly 2 worker",
			levelTracks, workerTracks)
	}
}
