// The performance-lab driver: repeated-sample benchmark snapshots.
// RunPerf measures every implementation with statistical sampling
// (perfstat), attributes the SAC runs to their (kernel, level) rows via
// the metrics collector, and packages everything as a versioned perfdb
// snapshot — the BENCH_<gitsha>.json record cmd/mgbench -fig perf saves
// and the CI perf gate compares against its checked-in baseline.
package harness

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/nas"
	"repro/internal/perfdb"
	"repro/internal/perfstat"
	wl "repro/internal/withloop"
)

// PerfConfig tunes the snapshot collection.
type PerfConfig struct {
	// Samples is the recorded solves per (implementation, class)
	// (default 10); Warmup solves are discarded first (default 2).
	Samples int
	Warmup  int
	// RepoDir is where git metadata is collected from (default ".").
	RepoDir string
}

func (c PerfConfig) withDefaults() PerfConfig {
	if c.Samples < 1 {
		c.Samples = 10
	}
	if c.Warmup < 0 {
		c.Warmup = 2
	}
	if c.RepoDir == "" {
		c.RepoDir = "."
	}
	return c
}

// solvePoints is the NPB point count of one timed solve: fine-grid
// points per residual+V-cycle pass, Iter iterations plus the closing
// residual (matching core's "solve" pseudo-kernel row).
func solvePoints(class nas.Class) uint64 {
	n := uint64(class.N)
	return n * n * n * uint64(class.Iter+1)
}

// derive fills a row's throughput columns from the per-point cost model
// of the kernel variant the row measured: the line-buffered backends do
// fewer flops per point than the scalar loops (core.KernelCost), so
// costing them as scalar would overstate their GFLOP/s.
func derive(r *perfdb.Row, points uint64) {
	r.Points = points
	cost := core.KernelCost(r.Kernel, r.Variant)
	if cost.Flops == 0 && cost.Bytes == 0 || r.Median <= 0 || points == 0 {
		return
	}
	nanos := r.Median * 1e9
	r.GFLOPS = float64(points) * cost.Flops / nanos
	r.GBPerSec = float64(points) * cost.Bytes / nanos
}

// RunPerf measures the given classes with repeated sampling and returns
// the snapshot. Per class it collects:
//
//   - SAC: per-(kernel, level) rows from the metrics collector — one
//     sample per solve per row — plus the "solve" pseudo-kernel row;
//   - F77 and C/OpenMP: whole-benchmark "solve" rows (those ports have
//     no kernel instrumentation, matching the paper's treatment of them
//     as opaque reference codes).
//
// Every recorded solve is also a verification run; RunPerf fails if any
// implementation stops verifying, because timings of a wrong answer are
// not worth recording.
func RunPerf(w io.Writer, classes []nas.Class, cfg PerfConfig) (*perfdb.Snapshot, error) {
	cfg = cfg.withDefaults()
	env := wl.Default()
	defer env.Close()
	snap := &perfdb.Snapshot{
		Schema:  perfdb.SchemaVersion,
		Created: time.Now().UTC().Format(time.RFC3339),
		Host:    perfdb.CollectHost(),
		Git:     perfdb.CollectGit(cfg.RepoDir),
		Config:  perfdb.Config{Samples: cfg.Samples, Warmup: cfg.Warmup, Workers: env.Workers()},
		// Calibrate on the same process and CPU set the samples will use,
		// so comparisons can divide out host-speed drift.
		Calibration: perfstat.Calibrate(),
	}
	fmt.Fprintf(w, "Benchmark snapshot — %d samples after %d warm-up solves per implementation\n",
		cfg.Samples, cfg.Warmup)

	for _, class := range classes {
		className := string(class.Name)

		// SAC: per-kernel attribution through the metrics collector. One
		// collector reset per solve turns each solve into one sample per
		// (kernel, level) row.
		collector := metrics.NewCollector(env.Workers())
		env.AttachMetrics(collector)
		b := core.NewBenchmark(class, env)
		b.Reset()
		kernelSamples := map[perfdb.Key][]float64{}
		kernelPoints := map[perfdb.Key]uint64{}
		var rnm2 float64
		var spins []float64
		for i := 0; i < cfg.Warmup+cfg.Samples; i++ {
			collector.Reset()
			rnm2, _ = b.Solve()
			if i < cfg.Warmup {
				continue
			}
			// One calibration spin per recorded solve: the block median
			// tracks the host speed *during* this measurement window.
			spins = append(spins, perfstat.Spin())
			for _, k := range collector.Snapshot().Kernels {
				key := perfdb.Key{Impl: "SAC", Class: className, Kernel: k.Kernel, Level: k.Level}
				kernelSamples[key] = append(kernelSamples[key], k.Seconds())
				kernelPoints[key] = k.Points
			}
		}
		env.AttachMetrics(nil)
		if v, known := class.Verify(rnm2); known && !v {
			return nil, fmt.Errorf("harness: perf: SAC class %s failed verification (rnm2 %.6e)", className, rnm2)
		}
		blockCal := perfstat.Median(perfstat.RejectOutliers(spins))
		for key, samples := range kernelSamples {
			row := perfdb.NewRow(key, samples)
			row.Calibration = blockCal
			// Stamp the backend this kernel runs at this level — the
			// variant the recorded samples measured. Kernels without
			// variant dispatch stay unstamped.
			if core.HasVariants(key.Kernel) {
				row.Variant = wl.VariantFor(key.Level, env.Variant)
			}
			derive(&row, kernelPoints[key])
			snap.Rows = append(snap.Rows, row)
		}

		// F77 and C/OpenMP: whole-benchmark rows only.
		for _, c := range contestants {
			if c.name == "SAC" {
				continue
			}
			b := c.build(class, nil)
			var norm float64
			var samples, refSpins []float64
			for i := 0; i < cfg.Warmup+cfg.Samples; i++ {
				b.Reset()
				start := time.Now()
				norm, _ = b.Solve()
				elapsed := time.Since(start).Seconds()
				if i < cfg.Warmup {
					continue
				}
				samples = append(samples, elapsed)
				refSpins = append(refSpins, perfstat.Spin())
			}
			if v, known := class.Verify(norm); known && !v {
				return nil, fmt.Errorf("harness: perf: %s class %s failed verification (rnm2 %.6e)",
					c.name, className, norm)
			}
			row := perfdb.NewRow(perfdb.Key{Impl: c.name, Class: className,
				Kernel: perfdb.TotalKernel, Level: class.LT()}, samples)
			row.Calibration = perfstat.Median(perfstat.RejectOutliers(refSpins))
			derive(&row, solvePoints(class))
			snap.Rows = append(snap.Rows, row)
		}
	}
	snap.SortRows()
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	writePerfTable(w, snap)
	return snap, nil
}

// writePerfTable prints the per-row summary of a freshly taken snapshot.
func writePerfTable(w io.Writer, snap *perfdb.Snapshot) {
	fmt.Fprintf(w, "%-34s %9s %12s %12s %22s %9s %8s\n",
		"row", "variant", "median ms", "mean ms", "95% CI (ms)", "GFLOP/s", "GB/s")
	for _, r := range snap.Rows {
		ci := fmt.Sprintf("[%.4f, %.4f]", r.CILow*1e3, r.CIHigh*1e3)
		line := fmt.Sprintf("%-34s %9s %12.4f %12.4f %22s", r.Key().String(),
			r.Variant, r.Median*1e3, r.Mean*1e3, ci)
		if r.GFLOPS > 0 || r.GBPerSec > 0 {
			line += fmt.Sprintf(" %9.2f %8.2f", r.GFLOPS, r.GBPerSec)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "git %s%s, go %s, %d CPUs\n\n", snap.Git.ShortSHA(),
		map[bool]string{true: " (dirty)", false: ""}[snap.Git.Dirty],
		snap.Host.GoVersion, snap.Host.CPUs)
}
