// Command mgrank is one rank of a distributed NAS-MG solve: N processes,
// each running this binary with a distinct -rank, form a TCP mesh and
// solve the slab-decomposed benchmark together — the multi-process
// counterpart of `mg -impl mpi`, whose per-iteration rnm2 it matches
// bit for bit.
//
// Rank 0 is the rendezvous point. It binds -addr (use :0 for an
// ephemeral port), prints the bound address as
//
//	MGRANK LISTEN <host:port>
//
// on stdout, and waits for the other ranks. Every other rank dials that
// address with -join:
//
//	mgrank -rank 0 -np 4 -class S -addr 127.0.0.1:15300 &
//	mgrank -rank 1 -np 4 -class S -join 127.0.0.1:15300 &
//	mgrank -rank 2 -np 4 -class S -join 127.0.0.1:15300 &
//	mgrank -rank 3 -np 4 -class S -join 127.0.0.1:15300 &
//	wait
//
// Each rank exits 0 only if its solve completed and the final rnm2
// passed NPB verification. A dead or misbehaving peer surfaces as a
// typed transport error within the -timeout deadline, printed to stderr
// with the culprit rank named, and exit status 1 — never a hang.
// -die-after-iter kills this rank abruptly (exit 3, sockets torn down
// by the kernel) after the given V-cycle iteration, for fault-injection
// tests.
//
// Observability (DESIGN.md §3.5): -trace FILE writes this rank's
// JSON-lines event stream — kernel spans plus one pairable send/recv
// event per transport call, anchored by a "hello" event emitted the
// moment the mesh bootstrap completes, which seeds mgtrace's clock
// alignment. Merge the per-rank files with `mgtrace rank*.jsonl` (or
// -perfetto / -commreport). -metrics-addr serves the transport's
// per-peer counters as a Prometheus /metrics endpoint, announced on
// stdout as MGRANK METRICS <host:port>.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/metrics"
	"repro/internal/mgmpi"
	"repro/internal/mpinet"
	"repro/internal/nas"
	"repro/internal/obs"
)

func main() {
	var (
		rank         = flag.Int("rank", 0, "this process's rank id, 0..np-1")
		np           = flag.Int("np", 1, "world size (number of mgrank processes)")
		className    = flag.String("class", "S", "NPB size class: S, W, A, B or C")
		addr         = flag.String("addr", "127.0.0.1:0", "rank 0: rendezvous listen address (use :0 for an ephemeral port)")
		join         = flag.String("join", "", "ranks 1..np-1: rendezvous address printed by rank 0")
		jsonOut      = flag.Bool("json", false, "print the per-rank result as one JSON object")
		timeout      = flag.Duration("timeout", 30*time.Second, "I/O deadline: a peer silent for this long is declared dead")
		retries      = flag.Int("retries", 60, "rendezvous/mesh dial attempts")
		backoff      = flag.Duration("backoff", 250*time.Millisecond, "pause between dial attempts")
		dieAfterIter = flag.Int("die-after-iter", 0, "fault injection: exit(3) abruptly after this V-cycle iteration (0 = never)")
		logFormat    = flag.String("log-format", "text", "structured log format for stderr diagnostics: text or json")
		tracePath    = flag.String("trace", "", "write this rank's JSON-lines trace (spans + pairable send/recv events) to this file")
		metricsAddr  = flag.String("metrics-addr", "", "serve the transport's per-peer counters as Prometheus text on this address's /metrics")
		overlap      = flag.Bool("overlap", false, "overlap the halo exchange with interior compute (send the boundary planes before the interior sweep)")
		threads      = flag.Int("threads", 1, "worker threads per rank for the plane loops (hybrid MPI×SMP; 1 = serial)")
	)
	flag.Parse()

	// Diagnostics go to stderr as structured log lines; the stdout
	// protocol (the MGRANK LISTEN line and the result report) is
	// unchanged — launchers parse it.
	logger, err := obs.NewLogger(os.Stderr, *logFormat, slog.LevelInfo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgrank:", err)
		os.Exit(2)
	}
	logger = logger.With("rank", *rank)
	fatalf := func(format string, args ...any) {
		logger.Error(fmt.Sprintf(format, args...))
		os.Exit(1)
	}

	// Usage errors surface before this rank listens or dials: a lone rank
	// would otherwise wait out the rendezvous for peers that cannot help.
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "mgrank: "+format+"\n", args...)
		os.Exit(2)
	}
	class, err := nas.ClassByName(*className)
	if err != nil {
		usage("%v", err)
	}
	if mgmpi.ValidateProcs(class, *np) != nil {
		usage("-np must be a power of two from 1 to %d at class %c; got %d", class.N/2, class.Name, *np)
	}
	if *rank < 0 || *rank >= *np {
		usage("-rank must be in 0..%d; got %d", *np-1, *rank)
	}
	if *threads < 1 {
		usage("-threads must be at least 1; got %d", *threads)
	}
	cfg := mpinet.Config{
		Rank:        *rank,
		Size:        *np,
		Class:       class.Name,
		DialRetries: *retries,
		DialBackoff: *backoff,
		IOTimeout:   *timeout,
	}

	var transport *mpinet.Transport
	if *rank == 0 {
		cfg.Addr = *addr
		rz, err := mpinet.Listen(cfg)
		if err != nil {
			fatalf("%v", err)
		}
		// The launcher (and the harness's runDistributed) scans stdout for
		// this line to learn the ephemeral port before starting the
		// other ranks.
		fmt.Printf("MGRANK LISTEN %s\n", rz.Addr())
		os.Stdout.Sync()
		transport, err = rz.Accept()
		if err != nil {
			fatalf("rendezvous failed: %v", err)
		}
	} else {
		if *join == "" {
			fatalf("ranks 1..np-1 need -join with rank 0's rendezvous address")
		}
		cfg.Addr = *join
		transport, err = mpinet.Join(cfg)
		if err != nil {
			fatalf("join failed: %v", err)
		}
	}
	defer transport.Close()

	// The tracer is created the moment the mesh bootstrap completes, and
	// the "hello" anchor is its first event: every rank's hello marks
	// (nearly) the same wall instant, which is the coarse clock alignment
	// mgtrace falls back on when paired traffic is missing.
	var tracer *metrics.Tracer
	if *tracePath != "" {
		tf, err := os.Create(*tracePath)
		if err != nil {
			fatalf("%v", err)
		}
		defer tf.Close()
		tracer = metrics.NewTracer(tf)
		defer tracer.Close()
		tracer.Emit(metrics.Event{Ev: "hello", Rank: *rank})
	}

	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			fatalf("metrics listener: %v", err)
		}
		// Announced like the rendezvous address, so launchers can scrape
		// an ephemeral :0 port.
		fmt.Printf("MGRANK METRICS %s\n", ln.Addr())
		os.Stdout.Sync()
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			st := transport.Stats() // safe concurrently with the solve
			if err := st.WritePrometheus(w, *rank); err != nil {
				logger.Error("metrics scrape failed", "err", err)
			}
		})
		srv := &http.Server{Handler: mux}
		defer srv.Close()
		go srv.Serve(ln)
	}

	solver, err := mgmpi.NewWithTransport(class, transport)
	if err != nil {
		fatalf("%v", err)
	}
	solver.Trace = tracer
	solver.Overlap = *overlap
	solver.Threads = *threads
	if *dieAfterIter > 0 {
		solver.OnIter = func(rank, iter int) {
			if iter == *dieAfterIter {
				logger.Error("dying after iteration (fault injection)", "iter", iter)
				os.Exit(3)
			}
		}
	}

	// Communication failures surface as panics from the mpi.Comm veneer,
	// already naming the peer rank and tag; turn them into a diagnosable
	// non-zero exit.
	var rnm2, rnmu float64
	var seconds float64
	err = func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("%v", r)
			}
		}()
		start := time.Now()
		rnm2, rnmu = solver.RunRank()
		seconds = time.Since(start).Seconds()
		return nil
	}()
	if err != nil {
		// Close before exiting: it waits until the abort relay (naming
		// the dead rank) has reached the surviving peers — os.Exit could
		// cut it off and they would only see this process's EOF.
		// The tracer flushes first: the partial trace is still pairable
		// up to the failure point (and mgtrace tolerates a torn tail).
		tracer.Close()
		transport.Close()
		fatalf("rank %d: solve failed: %v", *rank, err)
	}
	if err := tracer.Close(); err != nil {
		fatalf("rank %d: trace write failed: %v", *rank, err)
	}

	rep := solver.Report(*rank, rnm2, rnmu, seconds)
	if *jsonOut {
		json.NewEncoder(os.Stdout).Encode(rep)
	} else {
		verdict := "VERIFICATION FAILED"
		if rep.Verified {
			verdict = "VERIFICATION SUCCESSFUL"
		}
		fmt.Printf("mgrank: rank %d/%d class %c: rnm2 %.10e  %s  (%.3fs, %d msgs, %d payload B, %d wire B)\n",
			*rank, *np, class.Name, rnm2, verdict, seconds, rep.Messages, rep.Bytes, rep.WireBytes)
	}
	if !rep.Verified {
		os.Exit(1)
	}
}
