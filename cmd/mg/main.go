// Command mg runs the NAS MG benchmark with any of the three
// implementations the paper compares:
//
//	mg -impl sac   -class S             # the paper's high-level SAC program
//	mg -impl f77   -class A             # the NPB 2.3 Fortran-77 reference port
//	mg -impl c     -class W -threads 4  # the C/OpenMP port, 4 workers
//	mg -impl sac   -class S -opt 0      # unoptimized WITH-loop evaluation
//	mg -impl f77   -class S -threads 4 -mode autopar
//	mg -impl periodic -class S          # future-work: no artificial borders
//	mg -impl mpi   -class S -threads 4  # future-work: slab-decomposed MPI style
//
// It prints the timed-section duration, the final residual norms, and the
// official NPB verification verdict. -json replaces the human-readable
// output with a single JSON object (implementation, class, threads, timed
// seconds, Mop/s, norms, verification) for scripting:
//
//	mg -impl sac -class S -json | jq .verified
//
// Observability (SAC implementation only):
//
//	mg -impl sac -class S -metrics              # per-(kernel, level) table
//	mg -impl sac -class S -trace run.jsonl      # JSON-lines V-cycle trace
//	mg -impl sac -class S -health               # convergence-health verdict
//	mg -impl sac -class A -http :8080           # expvar + pprof + /metrics
//
// -http serves the standard net/http/pprof handlers, an "mg.metrics"
// expvar variable holding the live metrics snapshot as JSON, and a
// Prometheus text-format /metrics endpoint (kernel counters, duration
// histograms and the mg_health_* series). -health attaches the runtime
// convergence monitor (internal/health): per-iteration residual
// contraction tracking, sampled NaN/Inf guards and worker-imbalance
// gauges, summarized as a healthy/stalled/diverging verdict. -json runs
// also carry the monitor and report it in the summary's "health" block.
// All of these flags share one collector/tracer/monitor set, so every
// exposition path describes the same run (-impl mpi additionally feeds
// the tracer rank-tagged V-cycle spans).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"time"

	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/cport"
	"repro/internal/f77"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/mgmpi"
	"repro/internal/nas"
	"repro/internal/periodic"
	"repro/internal/sched"
	wl "repro/internal/withloop"
)

// f77Modes maps -mode to the Fortran-77 port's parallelization modes.
var f77Modes = map[string]f77.Mode{"serial": f77.Serial, "autopar": f77.AutoPar, "fullpar": f77.FullPar}

func main() {
	var (
		implName   = flag.String("impl", "sac", "implementation: sac, f77, c, periodic or mpi")
		className  = flag.String("class", "S", "NPB size class: S, W, A, B or C")
		threads    = flag.Int("threads", 1, "worker count (1 = sequential)")
		mode       = flag.String("mode", "fullpar", "f77 parallelization mode: serial, autopar or fullpar")
		opt        = flag.Int("opt", 3, "SAC optimization level 0-3")
		quiet      = flag.Bool("quiet", false, "print only the verification verdict")
		dump       = flag.String("dump", "", "write the solution grid to this file (binary, see internal/array)")
		npb        = flag.Bool("npb", false, "print the canonical NPB result block")
		jsonOut    = flag.Bool("json", false, "print the solve summary as a single JSON object (implies -quiet)")
		withStats  = flag.Bool("metrics", false, "collect per-(kernel, level) metrics (sac only) and print the table")
		traceFile  = flag.String("trace", "", "write a JSON-lines V-cycle event trace (sac and mpi) to this file")
		httpAddr   = flag.String("http", "", "serve expvar (/debug/vars, incl. mg.metrics), pprof and Prometheus /metrics on this address while running")
		withHealth = flag.Bool("health", false, "monitor convergence health (sac only) and print the verdict")
		overlap    = flag.Bool("overlap", false, "mpi only: overlap the halo exchange with interior compute (send the boundary planes before the interior sweep; -threads is the rank count)")
	)
	flag.Parse()

	fmode, ok := f77Modes[*mode]
	if !ok {
		fmt.Fprintln(os.Stderr, "mg: unknown -mode", *mode, "(want serial, autopar or fullpar)")
		os.Exit(2)
	}
	// -impl mpi checks its rank count against the class below.
	if *threads < 1 && *implName != "mpi" {
		fmt.Fprintf(os.Stderr, "mg: -threads must be at least 1; got %d\n", *threads)
		os.Exit(2)
	}
	if *overlap && *implName != "mpi" {
		fmt.Fprintf(os.Stderr, "mg: -overlap applies only to -impl mpi; got -impl %s\n", *implName)
		os.Exit(2)
	}

	if *jsonOut {
		*quiet = true
	}

	class, err := nas.ClassByName(*className)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// One shared sink set for every flag combination (see obs.go). The
	// health monitor rides along with -json and -http runs so the summary
	// block and /metrics endpoint are populated; it is sac-only, like the
	// metrics collector.
	o := &obs{}
	healthOn := *withHealth || *jsonOut || *httpAddr != ""
	if *withStats || *httpAddr != "" || (healthOn && *implName == "sac") {
		o.collector = metrics.NewCollector(max(*threads, runtime.GOMAXPROCS(0)))
	}
	if healthOn && *implName == "sac" {
		o.monitor = health.New()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mg:", err)
			os.Exit(1)
		}
		o.tracer = metrics.NewTracer(f)
		defer func() {
			if err := o.tracer.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "mg: trace:", err)
			}
			f.Close()
		}()
	}
	if *httpAddr != "" {
		publishMetricsVar(o.collector)
		http.HandleFunc("/metrics", promHandler(o))
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mg:", err)
			os.Exit(1)
		}
		defer ln.Close()
		if !*quiet {
			fmt.Printf("serving expvar/pprof/metrics on http://%s/\n", ln.Addr())
		}
		go http.Serve(ln, nil)
	}

	var (
		rnm2, rnmu float64
		elapsed    time.Duration
		solution   *array.Array
		backend    string // sac, mpi: the plane-kernel variant the finest level ran
		bench      nas.Benchmark
	)
	// The single-process arms only build their benchmark; the shared path
	// after the switch runs Reset, times Solve and keeps U for -dump.
	switch *implName {
	case "sac", "periodic":
		var env *wl.Env
		if *threads > 1 {
			env = wl.Parallel(*threads)
		} else {
			env = wl.Default()
		}
		defer env.Close()
		if *implName == "periodic" {
			bench = periodic.NewBenchmark(class, env)
			break
		}
		if *opt < 0 || *opt > 3 {
			fmt.Fprintln(os.Stderr, "mg: -opt must be 0..3")
			os.Exit(2)
		}
		env.Opt = wl.OptLevel(*opt)
		o.attach(env)
		if env.Opt >= wl.O3 { // below O3 the fused plane kernels do not run
			backend = wl.VariantFor(class.LT(), env.Variant)
		}
		bench = core.NewBenchmark(class, env)
	case "f77", "c":
		var pool *sched.Pool
		if *threads > 1 {
			pool = sched.NewPool(*threads)
			defer pool.Close()
		}
		if *implName == "c" {
			bench = cport.NewParallel(class, pool)
			break
		}
		bench = f77.NewParallel(class, pool, fmode)
	case "mpi":
		if mgmpi.ValidateProcs(class, *threads) != nil {
			fmt.Fprintf(os.Stderr, "mg: -impl mpi runs -threads ranks, a power of two from 1 to %d at class %c; got %d\n",
				class.N/2, class.Name, *threads)
			os.Exit(2)
		}
		s := mgmpi.New(class, *threads)
		s.Overlap = *overlap
		s.Trace = o.tracer
		backend = s.Variant()
		start := time.Now()
		rnm2, rnmu = s.Run()
		elapsed = time.Since(start)
		st := s.Stats()
		if !*quiet {
			fmt.Printf("communication: %d messages, %.2f MB payload, %.3fs blocked in exchanges\n",
				st.Messages, float64(st.Bytes)/1e6, time.Duration(st.ExchangeNanos).Seconds())
			fmt.Println("(in-process channel transport; `mgrank` runs the same solve as real" +
				" processes over TCP and additionally reports wire bytes)")
		}
	default:
		fmt.Fprintln(os.Stderr, "mg: unknown -impl", *implName,
			"(want sac, f77, c, periodic or mpi)")
		os.Exit(2)
	}
	if bench != nil {
		bench.Reset()
		start := time.Now()
		rnm2, rnmu = bench.Solve()
		elapsed = time.Since(start)
		solution = bench.U()
	}
	if *implName == "sac" {
		if *withStats {
			o.snapshot().WriteReport(os.Stdout, core.KernelCost)
		}
		if *withHealth && !*quiet {
			o.healthReport().WriteText(os.Stdout)
		}
	}

	if *dump != "" {
		if solution == nil {
			fmt.Fprintln(os.Stderr, "mg: -dump is not supported for -impl", *implName,
				"(the solution is distributed)")
			os.Exit(2)
		}
		f, err := os.Create(*dump)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mg:", err)
			os.Exit(1)
		}
		if _, err := solution.WriteTo(f); err != nil {
			fmt.Fprintln(os.Stderr, "mg: dump:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "mg: dump:", err)
			os.Exit(1)
		}
		if !*quiet {
			fmt.Printf("solution grid written to %s\n", *dump)
		}
	}

	verified, known := class.Verify(rnm2)
	if *jsonOut {
		// One JSON object on stdout, for scripting. Mop/s is the NPB
		// whole-benchmark throughput metric; verified is false for
		// classes without a reference value (see known).
		summary := struct {
			Impl     string        `json:"impl"`
			Class    string        `json:"class"`
			Threads  int           `json:"threads"`
			Variant  string        `json:"variant,omitempty"`
			Seconds  float64       `json:"seconds"`
			Mops     float64       `json:"mops"`
			Rnm2     float64       `json:"rnm2"`
			Rnmu     float64       `json:"rnmu"`
			Verified bool          `json:"verified"`
			Known    bool          `json:"known"`
			Health   health.Report `json:"health"`
		}{
			Impl: *implName, Class: string(class.Name), Threads: *threads, Variant: backend,
			Seconds: elapsed.Seconds(),
			Mops:    class.FlopCount() / elapsed.Seconds() / 1e6,
			Rnm2:    rnm2, Rnmu: rnmu,
			Verified: known && verified, Known: known,
			Health: o.healthReport(),
		}
		if err := json.NewEncoder(os.Stdout).Encode(summary); err != nil {
			fmt.Fprintln(os.Stderr, "mg:", err)
			os.Exit(1)
		}
		if known && !verified {
			os.Exit(1)
		}
		return
	}
	if *npb {
		// The report block the official NPB binaries print.
		status := "UNVERIFIED"
		if known && verified {
			status = "SUCCESSFUL"
		} else if known {
			status = "FAILED"
		}
		fmt.Printf("\n MG Benchmark Completed.\n")
		fmt.Printf(" Class           =            %c\n", class.Name)
		fmt.Printf(" Size            = %12d\n", class.N)
		fmt.Printf(" Iterations      = %12d\n", class.Iter)
		fmt.Printf(" Time in seconds = %12.2f\n", elapsed.Seconds())
		fmt.Printf(" Mop/s total     = %12.2f\n", class.FlopCount()/elapsed.Seconds()/1e6)
		fmt.Printf(" Operation type  =   floating point\n")
		fmt.Printf(" Verification    =   %s\n", status)
		fmt.Printf(" L2 Norm         = %21.13e\n\n", rnm2)
	}
	if !*quiet {
		fmt.Printf("NAS MG, class %s, implementation %s, %d thread(s)\n",
			class, *implName, *threads)
		if backend != "" {
			fmt.Printf("plane-kernel backend at level %d: %s\n", class.LT(), backend)
		}
		fmt.Printf("timed section: %v\n", elapsed)
		fmt.Printf("rnm2 = %.13e   rnmu = %.13e\n", rnm2, rnmu)
		if ref, official, ok := class.VerifyValue(); ok {
			src := "official NPB"
			if !official {
				src = "repository reference"
			}
			fmt.Printf("reference (%s) = %.13e\n", src, ref)
		}
	}
	switch {
	case !known:
		fmt.Println("VERIFICATION: no reference value for this class")
	case verified:
		fmt.Println("VERIFICATION SUCCESSFUL")
	default:
		fmt.Println("VERIFICATION FAILED")
		os.Exit(1)
	}
}
