// Per-figure benchmarks: every table/figure of the paper's evaluation has
// a testing.B counterpart here (plus the ablations stated in the text).
// cmd/mgbench produces the full formatted figures; these benchmarks are
// the `go test -bench` entry points that regenerate the underlying
// measurements.
//
// Classes S and W run by default; class A (256³, ~4 s per measurement) is
// exercised by cmd/mgbench and the non-short tests instead of the
// benchmark loop.
package repro

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/cport"
	"repro/internal/f77"
	"repro/internal/harness"
	"repro/internal/health"
	"repro/internal/mempool"
	"repro/internal/metrics"
	"repro/internal/nas"
	"repro/internal/smp"
	wl "repro/internal/withloop"
)

// --- Figure 11: single-processor performance ------------------------------------

// benchSolve times the NPB timed section, Solve, on the state Reset built.
func benchSolve(b *testing.B, bench nas.Benchmark) {
	bench.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Solve()
	}
}

func benchSAC(b *testing.B, class nas.Class) {
	env := wl.Default()
	defer env.Close()
	benchSolve(b, core.NewBenchmark(class, env))
}

func BenchmarkFig11_F77_ClassS(b *testing.B) { benchSolve(b, f77.New(nas.ClassS)) }
func BenchmarkFig11_SAC_ClassS(b *testing.B) { benchSAC(b, nas.ClassS) }
func BenchmarkFig11_C_ClassS(b *testing.B)   { benchSolve(b, cport.New(nas.ClassS)) }
func BenchmarkFig11_F77_ClassW(b *testing.B) { benchSolve(b, f77.New(nas.ClassW)) }
func BenchmarkFig11_SAC_ClassW(b *testing.B) { benchSAC(b, nas.ClassW) }
func BenchmarkFig11_C_ClassW(b *testing.B)   { benchSolve(b, cport.New(nas.ClassW)) }

// --- Figures 12/13: profile collection + SMP simulation ---------------------------

// BenchmarkFig12_ProfileAndSimulate measures the full Figure-12 pipeline:
// probe-instrumented benchmark runs for all three implementations plus the
// speedup prediction on the simulated Enterprise 4000.
func BenchmarkFig12_ProfileAndSimulate(b *testing.B) {
	m := smp.Enterprise4000()
	for i := 0; i < b.N; i++ {
		harness.RunFig12(io.Discard, []nas.Class{nas.ClassS}, m)
	}
}

// BenchmarkFig13_Rebase measures Figure 13's rebasing on top of a fixed
// Figure-12 series (the simulation itself, without remeasuring profiles).
func BenchmarkFig13_Rebase(b *testing.B) {
	m := smp.Enterprise4000()
	series := harness.RunFig12(io.Discard, []nas.Class{nas.ClassS}, m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		harness.RunFig13(io.Discard, series, m)
	}
}

// BenchmarkSMP_Predict isolates one cost-model evaluation.
func BenchmarkSMP_Predict(b *testing.B) {
	profiles := harness.CollectProfiles(nas.ClassS)
	m := smp.Enterprise4000()
	prof := profiles["SAC"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(prof, smp.SAC, 10)
	}
}

// --- T-stencil ablation: what each stencil optimization buys ----------------------
// (The per-kernel microbenchmarks live in internal/stencil; this is the
// whole-benchmark view: the modeled compiler levels O0–O3.)

func benchOptLevel(b *testing.B, opt wl.OptLevel) {
	env := wl.Default()
	defer env.Close()
	env.Opt = opt
	bench := core.NewBenchmark(nas.ClassS, env)
	bench.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Solve()
	}
}

func BenchmarkAblation_OptO0_ClassS(b *testing.B) { benchOptLevel(b, wl.O0) }
func BenchmarkAblation_OptO1_ClassS(b *testing.B) { benchOptLevel(b, wl.O1) }
func BenchmarkAblation_OptO2_ClassS(b *testing.B) { benchOptLevel(b, wl.O2) }
func BenchmarkAblation_OptO3_ClassS(b *testing.B) { benchOptLevel(b, wl.O3) }

// --- T-memmgmt ablation: SAC's memory manager on/off ------------------------------

func benchMemPool(b *testing.B, enabled bool) {
	env := wl.Default()
	defer env.Close()
	env.Pool = mempool.New(enabled)
	bench := core.NewBenchmark(nas.ClassS, env)
	bench.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Solve()
	}
}

func BenchmarkAblation_MemPoolOn_ClassS(b *testing.B)  { benchMemPool(b, true) }
func BenchmarkAblation_MemPoolOff_ClassS(b *testing.B) { benchMemPool(b, false) }

// --- sequential-threshold ablation --------------------------------------------------
// SAC executes WITH-loops over small index spaces sequentially (the paper
// discusses this policy for the coarse V-cycle grids). The sweep shows the
// cost of turning the policy off (fork/join on every tiny coarse-grid
// loop) or overdoing it (serializing the finest grids too).

func benchSeqThreshold(b *testing.B, threshold int) {
	env := wl.Parallel(4)
	defer env.Close()
	env.SeqThreshold = threshold
	bench := core.NewBenchmark(nas.ClassS, env)
	bench.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Solve()
	}
}

func BenchmarkAblation_SeqThreshold0(b *testing.B)    { benchSeqThreshold(b, 0) }
func BenchmarkAblation_SeqThreshold4096(b *testing.B) { benchSeqThreshold(b, 4096) }
func BenchmarkAblation_SeqThresholdHuge(b *testing.B) { benchSeqThreshold(b, 1<<30) }

// --- norm-fused kernels and kernel variants -----------------------------------------

// BenchmarkSACResidNorm compares the fused final-residual evaluation (the
// norms accumulate inside the residual traversal — one grid read) against
// the separate resid-then-norm two-pass reference, on a converged solution
// grid. Both produce bit-identical norms.
func BenchmarkSACResidNorm(b *testing.B) {
	for _, class := range []nas.Class{nas.ClassS, nas.ClassW} {
		env := wl.Default()
		bench := core.NewBenchmark(class, env)
		bench.Reset()
		bench.Solve() // the grids the final residual is evaluated on
		s := bench.Solver
		b.Run(fmt.Sprintf("fused_class%c", class.Name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.ResidNorm(bench.V(), bench.U(), class.N)
			}
		})
		b.Run(fmt.Sprintf("separate_class%c", class.Name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.ResidNormSeparate(bench.V(), bench.U(), class.N)
			}
		})
		env.Close()
	}
}

// BenchmarkSACVariant sweeps the plane-kernel inner-loop backends over
// the whole benchmark: scalar (rolling-row loops), buffered (line-buffer row
// memoisation) and simd (AVX2 fills and combines where available). All
// three produce bit-identical results (TestBufferedBitIdentical); this
// measures what the equivalence buys.
func BenchmarkSACVariant(b *testing.B) {
	for _, class := range []nas.Class{nas.ClassS, nas.ClassW} {
		for _, variant := range []string{wl.VariantScalar, wl.VariantBuffered, wl.VariantSIMD} {
			b.Run(fmt.Sprintf("%s_class%c", variant, class.Name), func(b *testing.B) {
				env := wl.Default()
				defer env.Close()
				env.Variant = variant
				bench := core.NewBenchmark(class, env)
				bench.Reset()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bench.Solve()
				}
			})
		}
	}
}

// --- Observability overhead guard --------------------------------------------------

// BenchmarkMetricsDisabled is the baseline class-S solve with no collector
// or tracer attached — the default configuration every other benchmark in
// this file runs in. Compare against BenchmarkMetricsEnabled to bound the
// cost of the metrics layer; the disabled path itself is asserted to be
// allocation-free in internal/metrics (TestMetricsDisabledZeroAlloc).
func BenchmarkMetricsDisabled(b *testing.B) {
	env := wl.Default()
	defer env.Close()
	bench := core.NewBenchmark(nas.ClassS, env)
	bench.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Solve()
	}
}

// BenchmarkMetricsEnabled runs the same solve with a live collector and a
// tracer writing to io.Discard — the full observability cost.
func BenchmarkMetricsEnabled(b *testing.B) {
	env := wl.Default()
	defer env.Close()
	env.AttachMetrics(metrics.NewCollector(env.Workers()))
	env.Trace = metrics.NewTracer(io.Discard)
	bench := core.NewBenchmark(nas.ClassS, env)
	bench.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Solve()
	}
	b.StopTimer()
	if err := env.Trace.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTraceJobView runs the class-S solve emitting through a
// ForJob tracer view (the daemon's per-request configuration: every
// kernel span trace/job-tagged) writing to io.Discard. Compare against
// BenchmarkMetricsEnabled to bound the cost of the tags themselves, and
// against BenchmarkMetricsDisabled for the full tracing overhead; the
// disabled view is asserted allocation-free in internal/metrics
// (TestMetricsDisabledZeroAlloc covers the nil ForJob path).
func BenchmarkTraceJobView(b *testing.B) {
	env := wl.Default()
	defer env.Close()
	tr := metrics.NewTracer(io.Discard)
	env.Trace = tr.ForJob("00112233445566778899aabbccddeeff", "deadbeef00000001")
	bench := core.NewBenchmark(nas.ClassS, env)
	bench.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Solve()
	}
	b.StopTimer()
	if err := tr.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHealthEnabled runs the class-S solve with only the
// convergence-health monitor attached: the residual fold, the strided
// NaN guards and the per-iteration bookkeeping. Compare against
// BenchmarkMetricsDisabled to bound the monitor's overhead; a nil
// monitor is the disabled baseline and adds nothing (asserted
// allocation-free in internal/health).
func BenchmarkHealthEnabled(b *testing.B) {
	env := wl.Default()
	defer env.Close()
	env.Health = health.New()
	bench := core.NewBenchmark(nas.ClassS, env)
	bench.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.Solve()
	}
}
