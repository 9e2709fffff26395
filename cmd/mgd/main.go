// Command mgd runs the MG solver as a resident service: an HTTP/JSON
// API over the internal/jobq queue, with one process-global worker pool
// and buffer arena shared by every job, a content-addressed result
// cache, admission control, graceful drain, and a request-scoped
// observability layer (internal/obs): 128-bit trace IDs, structured
// logs, per-stage latency histograms and an anomaly flight recorder.
//
//	mgd -addr :8750 -runners 2 -workers 8 -log-format json -trace mgd-trace.jsonl
//
// API:
//
//	POST /v1/solve        submit {"class":"A","impl":"sac",...};
//	                      202 + job id, 200 on a cache hit or "wait":true,
//	                      400 malformed, 429 + Retry-After when full,
//	                      503 while draining. X-Mg-Trace-Id in: adopt the
//	                      caller's trace; out: the id assigned to the job.
//	GET  /v1/jobs/{id}    job status (any lifecycle state)
//	GET  /v1/results/{id} terminal result with its stage breakdown;
//	                      202 while still in flight
//	GET  /v1/stats        queue counters as JSON, plus the bound address
//	                      and cumulative per-stage seconds
//	GET  /metrics         Prometheus text: mgd_* queue series, the
//	                      mgd_stage_seconds histograms, and the shared
//	                      collector's per-kernel rows
//	GET  /debug/flightrecorder   the flight recorder's JSON snapshot
//	GET  /healthz         liveness
//	GET  /readyz          readiness; 503 once draining begins
//
// SIGINT/SIGTERM starts a graceful shutdown: intake stops (readyz goes
// unready, new submissions get 503), admitted jobs run to completion
// within -drain-timeout, then stragglers are cancelled. SIGQUIT dumps
// the flight recorder (to -flight-dir when set) and keeps serving.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/jobq"
	"repro/internal/mempool"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
)

func main() {
	var (
		addr         = flag.String("addr", ":8750", "listen address (use :0 for an ephemeral port; the bound address is logged and served in /v1/stats)")
		workers      = flag.Int("workers", 0, "shared worker pool size (0 = GOMAXPROCS)")
		runners      = flag.Int("runners", 2, "jobs solved concurrently")
		capacity     = flag.Int("capacity", 64, "admission limit: queued+running jobs")
		cacheSize    = flag.Int("cache", 256, "result cache entries")
		prios        = flag.String("priorities", "", "tenant priorities, e.g. gold=10,batch=-5")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget for in-flight jobs")
		logFormat    = flag.String("log-format", "text", "structured log format: text or json")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn or error")
		tracePath    = flag.String("trace", "", "write the service's trace-tagged V-cycle event stream (JSON lines) to this file")
		flightDir    = flag.String("flight-dir", "", "directory for anomaly-triggered flight recorder dumps (empty: HTTP snapshot only)")
	)
	flag.Parse()

	// jobq.New and sched.NewPersistent would quietly replace these with
	// their defaults; a value the operator did not mean is a usage error.
	for _, f := range []struct {
		name     string
		val, min int
	}{{"runners", *runners, 1}, {"capacity", *capacity, 1}, {"cache", *cacheSize, 1}, {"workers", *workers, 0}} {
		if f.val < f.min {
			fmt.Fprintf(os.Stderr, "mgd: -%s must be at least %d; got %d\n", f.name, f.min, f.val)
			os.Exit(2)
		}
	}

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgd:", err)
		os.Exit(2)
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgd:", err)
		os.Exit(2)
	}
	priorities, err := parsePriorities(*prios)
	if err != nil {
		logger.Error("bad -priorities", "error", err)
		os.Exit(2)
	}

	var tracer *metrics.Tracer
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			logger.Error("cannot create trace file", "path", *tracePath, "error", err)
			os.Exit(1)
		}
		defer f.Close()
		tracer = metrics.NewTracer(f)
		defer tracer.Close()
	}

	observer := obs.New(obs.Config{Log: logger, FlightDir: *flightDir})

	pool := sched.NewPersistent(*workers)
	arena := mempool.Shared()
	collector := metrics.NewCollector(pool.Workers())
	run := jobq.NewSolver(jobq.SolverConfig{
		Sched: pool, Mem: arena,
		Metrics: collector, Trace: tracer, Obs: observer,
	})
	q := jobq.New(jobq.Config{
		Capacity:     *capacity,
		Runners:      *runners,
		CacheEntries: *cacheSize,
		Priorities:   priorities,
		Run:          run,
		Obs:          observer,
		Trace:        tracer,
	})

	// Bind before serving so the actual address — the one that matters
	// with :0 — is known, logged, and visible in /v1/stats; operators
	// and tests stop parsing stdout for it.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "error", err)
		os.Exit(1)
	}
	bound := ln.Addr().String()

	s := &server{q: q, collector: collector, obs: observer, addr: bound, started: time.Now()}
	httpServer := &http.Server{Handler: s.routes()}

	go func() {
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		for range quit {
			path, ok := observer.Recorder().Trigger(obs.ReasonSignal)
			logger.Info("SIGQUIT: flight recorder dump", "dumped", ok, "path", path)
		}
	}()

	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
		<-sig
		logger.Info("draining", "budget", drainTimeout.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := q.Drain(ctx); err != nil {
			logger.Warn("drain incomplete", "error", err)
		}
		shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel2()
		httpServer.Shutdown(shutdownCtx)
	}()

	logger.Info("serving", "addr", bound,
		"workers", pool.Workers(), "runners", *runners,
		"capacity", *capacity, "cache", *cacheSize,
		"log_format", *logFormat)
	if err := httpServer.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("serve failed", "error", err)
		os.Exit(1)
	}
	q.Close()
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			logger.Warn("trace stream error", "error", err)
		}
	}
	logger.Info("drained, bye", "completed", q.Stats().Completed)
}

// parsePriorities parses "tenant=level,tenant=level".
func parsePriorities(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, level, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("%q is not tenant=level", part)
		}
		n, err := strconv.Atoi(level)
		if err != nil {
			return nil, fmt.Errorf("%q: %v", part, err)
		}
		out[name] = n
	}
	return out, nil
}

// server is the HTTP front end over the queue.
type server struct {
	q         *jobq.Queue
	collector *metrics.Collector
	obs       *obs.Observer
	addr      string
	started   time.Time
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/results/{id}", s.handleResult)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/flightrecorder", s.handleFlightRecorder)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.q.Stats().Draining {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ready\n")
	})
	return mux
}

// writeJSON renders one response; jobq.Result marshals directly.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

type errorBody struct {
	Error any `json:"error"`
}

// requestTrace resolves a request's trace identity: adopt a valid
// X-Mg-Trace-Id from the caller (an upstream proxy or a client
// correlating retries), mint a fresh 128-bit ID otherwise. The resolved
// ID is echoed on the response so the caller can grep logs and traces.
func requestTrace(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get(obs.TraceHeader)
	if !obs.ValidTraceID(id) {
		id = obs.NewTraceID().String()
	}
	w.Header().Set(obs.TraceHeader, id)
	return id
}

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	traceID := requestTrace(w, r)
	log := s.obs.Log().With("trace_id", traceID, "remote", r.RemoteAddr)
	body, err := io.ReadAll(io.LimitReader(r.Body, jobq.MaxRequestBytes+1))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	req, err := jobq.ParseRequest(body)
	if err != nil {
		log.Warn("malformed solve request", "stage", obs.StageIngress, "error", err)
		var re *jobq.RequestError
		if errors.As(err, &re) {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: re})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	// A traceId in the JSON body (an SDK propagating context) wins over
	// the minted header ID; otherwise the header's ID becomes the job's.
	if req.TraceID == "" {
		req.TraceID = traceID
	} else {
		w.Header().Set(obs.TraceHeader, req.TraceID)
	}

	tk, err := s.q.Submit(req)
	var full *jobq.FullError
	switch {
	case errors.As(err, &full):
		w.Header().Set("Retry-After", strconv.Itoa(int(full.RetryAfter.Seconds())))
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: full.Error()})
		return
	case errors.Is(err, jobq.ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}

	if tk.Cached() {
		writeJSON(w, http.StatusOK, tk.Result())
		return
	}
	if !req.Wait {
		writeJSON(w, http.StatusAccepted, tk.Result())
		return
	}
	// Wait mode: hold the connection until the job is terminal. A client
	// that disconnects releases its claim — the last waiter leaving
	// cancels the solve at its next iteration boundary.
	select {
	case <-tk.Done():
		writeJSON(w, http.StatusOK, tk.Result())
	case <-r.Context().Done():
		log.Info("client disconnected while waiting",
			"job_id", tk.ID(), "tenant", req.Tenant, "stage", obs.StageRespond)
		tk.Release()
	}
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	res, ok := s.q.Lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job id"})
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, ok := s.q.Lookup(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "unknown job id"})
		return
	}
	if !res.State.Terminal() {
		writeJSON(w, http.StatusAccepted, res)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		jobq.Stats
		Addr          string  `json:"addr"`
		UptimeSeconds float64 `json:"uptimeSeconds"`
		FlightDumps   uint64  `json:"flightDumps"`
	}{s.q.Stats(), s.addr, time.Since(s.started).Seconds(), s.obs.Recorder().Dumps()})
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.q.WritePrometheus(w)
	s.obs.Hist().WritePrometheus(w)
	s.collector.Snapshot().WritePrometheus(w, core.KernelCost)
}

// handleFlightRecorder serves the recorder's current snapshot — the
// on-demand postmortem view.
func (s *server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.obs.Recorder().WriteTo(w, obs.ReasonRequest)
}
