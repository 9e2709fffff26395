// Command bench is the repository's benchmark: four workloads, each
// measured end to end (untraced) and layer by layer (traced), every
// output checked for correctness. See README.md in this directory and
// BENCHMARK.json at the repository root.
//
//	go run ./bench                                  every workload, both passes
//	go run ./bench -workload solve_W -seed 7        one workload, both passes
//	go run ./bench -workload solve_W -seed 7 -seconds 20 -trace 0
//	go run ./bench -agree                           two sets of runs, compared
//
// With -workload and -trace the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all of them)")
		seed    = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		secs    = flag.Float64("seconds", 0, "seconds of load per run (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; default both")
		doAgree = flag.Bool("agree", false, "run two sets of runs of every workload and compare their medians against the bounds")
	)
	flag.Parse()

	m, err := loadManifest()
	if err == nil {
		err = m.validate()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	cfg := config{
		seed:     *seed,
		seconds:  *secs,
		buildDir: ".bench_build",
		outDir:   filepath.Join("bench", "out"),
	}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(m.RunSeconds)
	}
	if *doAgree {
		if err := agree(m, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	selected := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{w}
	}
	ok := true
	for _, w := range selected {
		for _, traced := range []bool{false, true} {
			if (*trace == 0 && traced) || (*trace == 1 && !traced) {
				continue
			}
			if !runOne(w, cfg, traced) {
				ok = false
			}
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runOne runs one pass of one workload, prints every metric by name with
// its unit, and ends with the result line.
func runOne(w workload, cfg config, traced bool) bool {
	fmt.Printf("# workload %s seed %d seconds %g trace %v\n", w.name, cfg.seed, cfg.seconds, traced)
	run := runUntraced
	if traced {
		run = runTraced
	}
	res, err := run(w, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %.9g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Printf("%s\n", line)
	return res.Correct
}
