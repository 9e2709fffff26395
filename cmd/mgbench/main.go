// Command mgbench regenerates every figure of the paper's evaluation
// section plus the ablations stated in the text:
//
//	mgbench -fig 11                  # single-processor performance table
//	mgbench -fig 12                  # own-relative speedups (simulated SMP)
//	mgbench -fig 13                  # speedups relative to serial F77
//	mgbench -fig codesize            # the >10x code-size claim
//	mgbench -fig all -classes S,W,A  # everything the paper reports
//
// Figures 12/13 use the SMP cost-model simulator (internal/smp) driven by
// real measured kernel profiles — see DESIGN.md §4 for why the paper's
// 12-processor SUN Enterprise 4000 is simulated rather than re-run.
//
// The per-(kernel, level) metrics table, the V-cycle trace and the
// convergence-health verdict of a SAC solve come from cmd/mg
// (-metrics, -trace, -health); the solver service is driven by
// cmd/mgload against cmd/mgd. mgbench keeps to the figures.
//
// -cpuprofile/-memprofile wrap the selected figure's measurements with the
// standard runtime/pprof collectors for kernel-level inspection.
//
// -fig dist compares the in-process channel transport against a real
// multi-process TCP run (cmd/mgrank), asserting NPB verification and
// bit-identical rnm2 on every rank:
//
//	go build -o mgrank ./cmd/mgrank
//	mgbench -fig dist -mgrank ./mgrank -classes S,W -ranks 4
//
// -fig comm is the distributed-observability experiment (FW-3c in
// EXPERIMENTS.md): the same multi-process run with per-rank tracing on,
// merged into a clock-aligned Perfetto timeline and a skew/overlap
// report, with the pairing and blocked-time-attribution gates enforced:
//
//	mgbench -fig comm -mgrank ./mgrank -classes S -ranks 4 -commout comm-artifacts
//
// Both distributed figures accept -overlap, which runs the ranks with
// the overlapped halo exchange (mgrank -overlap); -fig comm
// additionally prints one `overlap efficiency: <x>` summary line per
// class, the number CI's overlap gate compares between the synchronous
// and overlapped runs.
//
// The performance regression lab lives under -fig perf: repeated-sample
// benchmark snapshots (internal/perfstat statistics over the
// internal/metrics per-kernel attribution) saved as versioned JSON
// (internal/perfdb), and statistically gated comparisons:
//
//	mgbench -fig perf -classes S,W                      # snapshot to BENCH_<gitsha>.json
//	mgbench -fig perf -classes S -snapshot a.json       # explicit output path
//	mgbench -fig perf -classes S -baseline a.json       # compare; exit 1 on regression
//	mgbench -fig perf -baseline a.json -threshold 0.25  # gate at 25% median slowdown
//
// A row regresses only when the Mann-Whitney U test rejects "same
// distribution" at -alpha AND the median moved by at least -threshold
// relative and 20µs absolute — see internal/perfstat for why both guards
// exist. The comparison table attributes an end-to-end delta to the
// (kernel, level) rows that moved; CI runs this against the checked-in
// BENCH_baseline.json on every push (see .github/workflows/ci.yml).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/harness"
	"repro/internal/nas"
	"repro/internal/perfdb"
	"repro/internal/perfstat"
	"repro/internal/smp"
)

func main() {
	var (
		fig         = flag.String("fig", "all", "figure to regenerate: 11, 12, 13, mpi, dist, comm, codesize, perf or all")
		classes     = flag.String("classes", "S,W", "comma-separated size classes (paper: W,A)")
		repeats     = flag.Int("repeats", 3, "repetitions per Fig. 11 measurement (best reported)")
		repo        = flag.String("repo", ".", "repository root (for -fig codesize)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of the measurements to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile taken after the measurements to this file")
		snapshotOut = flag.String("snapshot", "", "-fig perf: write the benchmark snapshot here (default BENCH_<gitsha>.json)")
		baseline    = flag.String("baseline", "", "-fig perf: compare the fresh snapshot against this baseline and exit 1 on a significant regression")
		threshold   = flag.Float64("threshold", 0.25, "-fig perf: minimum relative median change that counts (0.25 = 25%; tighten on quiet dedicated hardware)")
		alpha       = flag.Float64("alpha", 0.01, "-fig perf: Mann-Whitney significance level of the regression test")
		samples     = flag.Int("samples", 10, "-fig perf: recorded solves per (implementation, class)")
		warmup      = flag.Int("warmup", 2, "-fig perf: discarded warm-up solves per (implementation, class)")
		mgrankBin   = flag.String("mgrank", "", "-fig dist/comm: path to a built cmd/mgrank binary")
		distRanks   = flag.Int("ranks", 4, "-fig dist/comm: number of mgrank processes")
		commOut     = flag.String("commout", "comm-artifacts", "-fig comm: directory for the per-rank traces, merged Perfetto timeline and comm report")
		distOverlap = flag.Bool("overlap", false, "-fig dist/comm: run the ranks with the overlapped halo exchange (mgrank -overlap)")
	)
	flag.Parse()

	var classList []nas.Class
	for _, name := range strings.Split(*classes, ",") {
		c, err := nas.ClassByName(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		classList = append(classList, c)
	}
	machine := smp.Enterprise4000()
	out := os.Stdout

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mgbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "mgbench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mgbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile is the live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "mgbench:", err)
			}
		}()
	}

	switch *fig {
	case "11":
		harness.RunFig11(out, classList, *repeats)
	case "12":
		harness.RunFig12(out, classList, machine)
	case "13":
		series := harness.RunFig12(out, classList, machine)
		harness.RunFig13(out, series, machine)
	case "mpi":
		for _, class := range classList {
			ranks := []int{1, 2, 4, 8}
			if class.N/2 < 8 {
				ranks = []int{1, 2, 4}
			}
			harness.RunMPIStats(out, class, ranks)
		}
	case "dist":
		if *mgrankBin == "" {
			fmt.Fprintln(os.Stderr, "mgbench: -fig dist needs -mgrank with a built cmd/mgrank binary")
			os.Exit(2)
		}
		if err := harness.RunFigDist(out, *mgrankBin, classList, *distRanks, *distOverlap); err != nil {
			fmt.Fprintln(os.Stderr, "mgbench:", err)
			os.Exit(1)
		}
	case "comm":
		if *mgrankBin == "" {
			fmt.Fprintln(os.Stderr, "mgbench: -fig comm needs -mgrank with a built cmd/mgrank binary")
			os.Exit(2)
		}
		for _, class := range classList {
			rep, err := harness.RunFigComm(out, *mgrankBin, class, *distRanks, *distOverlap, *commOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mgbench:", err)
				os.Exit(1)
			}
			// One greppable summary line per class — the CI overlap gate
			// compares this number between the sync and -overlap runs.
			fmt.Fprintf(out, "overlap efficiency: %.3f\n", rep.OverlapEfficiency)
		}
	case "codesize":
		if _, err := harness.RunCodeSize(out, *repo); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "perf":
		regressed, err := runPerf(out, classList, *repo, *snapshotOut, *baseline, *samples, *warmup, *alpha, *threshold)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mgbench:", err)
			os.Exit(1)
		}
		if regressed {
			fmt.Fprintln(os.Stderr, "mgbench: performance regression against", *baseline)
			os.Exit(1)
		}
	case "all":
		harness.RunFig11(out, classList, *repeats)
		series := harness.RunFig12(out, classList, machine)
		harness.RunFig13(out, series, machine)
		for _, class := range classList {
			harness.RunMPIStats(out, class, []int{1, 2, 4, 8})
		}
		if _, err := harness.RunCodeSize(out, *repo); err != nil {
			fmt.Fprintln(os.Stderr, "codesize skipped:", err)
		}
	default:
		fmt.Fprintln(os.Stderr, "mgbench: unknown -fig", *fig)
		os.Exit(2)
	}
}

// runPerf takes a statistical benchmark snapshot (harness.RunPerf),
// saves it (default: BENCH_<gitsha>.json in the repository root), and —
// when a baseline is given — prints the row-by-row comparison and
// reports whether any row regressed significantly.
func runPerf(out *os.File, classList []nas.Class, repoDir, snapshotOut, baseline string, samples, warmup int, alpha, threshold float64) (regressed bool, err error) {
	snap, err := harness.RunPerf(out, classList, harness.PerfConfig{
		Samples: samples, Warmup: warmup, RepoDir: repoDir,
	})
	if err != nil {
		return false, err
	}
	path := snapshotOut
	if path == "" {
		path = filepath.Join(repoDir, fmt.Sprintf("BENCH_%s.json", snap.Git.ShortSHA()))
	}
	if err := snap.Save(path); err != nil {
		return false, err
	}
	fmt.Fprintf(out, "snapshot saved to %s (%d rows)\n", path, len(snap.Rows))
	if baseline == "" {
		return false, nil
	}
	base, err := perfdb.Load(baseline)
	if err != nil {
		return false, err
	}
	cmp := perfdb.Compare(base, snap, perfstat.Thresholds{Alpha: alpha, MinRel: threshold})
	fmt.Fprintln(out)
	cmp.WriteTable(out)
	return cmp.HasRegression(), nil
}
