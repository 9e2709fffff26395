// Package health is the runtime convergence monitor of the MG solve: the
// layer that *interprets* the raw observability signals (internal/metrics)
// while a solve is still running, instead of leaving them for offline
// analysis.
//
// The paper's claim is measured behaviour — per-class runtimes and
// verified rnm2 norms — and a "production-scale, heavy-traffic" deployment
// (ROADMAP) needs to know *during* a solve whether that behaviour still
// holds: is the residual contracting at the multigrid rate the paper's
// verified norms imply, has it stalled, is it diverging, has a NaN or Inf
// crept into a grid, and are the scheduler's workers actually sharing the
// load. A Monitor answers those questions from three cheap signals:
//
//  1. Per-iteration residual norms. The solver's fused residual kernel
//     already touches every grid point once per iteration; with a monitor
//     attached it folds the NPB norm accumulation into that same traversal
//     (core's subRelaxNorm), so the per-iteration rnm2 sequence costs no
//     extra grid pass. The monitor tracks the contraction ratio
//     rnm2_i / rnm2_{i−1} against the expected rate (ExpectedRate).
//  2. Sampled NaN/Inf guards. Checking every point of every kernel output
//     would double the memory traffic; checking a strided sample costs a
//     few dozen loads per kernel invocation and still catches non-finite
//     corruption within one iteration, because NaNs propagate through the
//     27-point stencils at one halo per application (and the per-iteration
//     norm is an every-point NaN detector one iteration later at the
//     latest).
//  3. Per-worker busy time from the metrics collector's RecordBusy shards
//     (sched.Pool), from which the report derives utilization shares and
//     the max/mean imbalance gauge.
//
// # Verdicts
//
// The contraction ratio classifies each iteration: above DivergeRatio the
// solve is diverging, above StallRatio it has stalled, otherwise it is
// healthy. One deliberate exception, calibrated on the verified NPB runs:
// once the residual has fallen below FloorRatio relative to the first
// residual, flat ratios mean the solve has converged to the
// floating-point floor, not stalled — class W (40 iterations) reaches
// rnm2 ≈ 2.5e-18 around iteration 35 and its last five ratios hover at
// ~1.0 while the run still verifies bit-exactly. Unhealthy verdicts are
// sticky: a later good ratio does not clear a recorded stall.
//
// # Disabled path
//
// A nil *Monitor is the disabled monitor: every method is nil-safe and
// allocation-free, so instrumented code calls the hooks unconditionally
// and an unmonitored run pays one nil check per hook site
// (TestMonitorDisabledZeroAlloc; BenchmarkMetricsDisabled in the root
// package holds the whole disabled observability path to benchmark
// parity).
package health

import (
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/metrics"
)

// Verdict classifies the convergence behaviour observed so far.
type Verdict int

const (
	// Unknown means no residual has been observed yet.
	Unknown Verdict = iota
	// Healthy means every observed contraction ratio was below the stall
	// threshold.
	Healthy
	// Converged means the residual reached the floating-point floor
	// (below FloorRatio of the first residual); ratios near 1 are
	// expected there and do not count as stalls.
	Converged
	// Stalled means a contraction ratio reached StallRatio while the
	// residual was still far from the floor.
	Stalled
	// Diverging means a contraction ratio exceeded DivergeRatio.
	Diverging
	// NonFinite means a NaN or Inf was observed, either by a sampled
	// kernel guard or in a residual norm.
	NonFinite
)

// String returns the verdict name used in reports, JSON and Prometheus
// labels.
func (v Verdict) String() string {
	switch v {
	case Unknown:
		return "unknown"
	case Healthy:
		return "healthy"
	case Converged:
		return "converged"
	case Stalled:
		return "stalled"
	case Diverging:
		return "diverging"
	case NonFinite:
		return "non-finite"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// verdicts lists every verdict, in declaration order (the Prometheus
// state metric emits one series per entry).
func verdicts() []Verdict {
	return []Verdict{Unknown, Healthy, Converged, Stalled, Diverging, NonFinite}
}

// The monitor's thresholds, calibrated on the verified NPB classes (see
// the package comment and the per-iteration ratio table in DESIGN.md
// §3.4).
const (
	// ExpectedRate is the anticipated per-iteration contraction factor
	// of the residual norm — the paper's MG V-cycle contracts rnm2 by
	// ~0.12–0.37 per iteration on the verified classes, so the
	// expectation is 0.6 with headroom. It feeds the report (observed vs
	// expected) and the Prometheus gauge; it is not a verdict threshold.
	ExpectedRate = 0.6
	// StallRatio is the contraction ratio at or above which an iteration
	// counts as stalled.
	StallRatio = 0.97
	// DivergeRatio is the contraction ratio above which an iteration
	// counts as diverging.
	DivergeRatio = 1.5
	// FloorRatio is the residual level, relative to the first observed
	// residual, below which flat ratios mean "converged to the
	// floating-point floor" rather than "stalled" (class W bottoms out at
	// rnm2/first ≈ 3e-16 and keeps verifying).
	FloorRatio = 1e-14
	// SampleStride is the element stride of the NaN/Inf kernel guards: a
	// few dozen loads per kernel invocation at class-A sizes.
	SampleStride = 1024
)

// Monitor accumulates convergence observations of one solve at a time.
// It is attached through withloop.Env.Health; the solver hooks
// (internal/core/observe.go) feed it. A Monitor survives repeated solves
// of the same benchmark instance: the first iteration of a new solve
// resets the run state. All methods are safe for concurrent use and
// nil-safe (see the package comment).
type Monitor struct {
	mu sync.Mutex

	iter        int     // current 1-based iteration
	residSeen   bool    // iteration residual already observed this iteration
	first, last float64 // first and most recent residual norm
	ratios      int     // contraction ratios observed
	logSum      float64 // Σ log(ratio), for the geometric-mean rate
	lastRatio   float64
	verdict     Verdict
	verdictIter int    // iteration of the first unhealthy observation
	faultKernel string // kernel of the first non-finite sample, if any
	faultLevel  int
	nonFinite   uint64 // non-finite observations (samples and norms)
}

// New creates a monitor.
func New() *Monitor { return &Monitor{} }

// SampleStride returns the NaN/Inf guard stride (0 when disabled, which
// callers must treat as "do not sample").
func (m *Monitor) SampleStride() int {
	if m == nil {
		return 0
	}
	return SampleStride
}

// BeginIteration marks the start of MGrid iteration iter (1-based).
// Iteration 1 starts a fresh solve: all run state of a previous solve on
// the same monitor is discarded.
func (m *Monitor) BeginIteration(iter int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if iter <= 1 {
		m.first, m.last = 0, 0
		m.ratios, m.logSum, m.lastRatio = 0, 0, 0
		m.verdict, m.verdictIter = Unknown, 0
		m.faultKernel, m.faultLevel = "", 0
		m.nonFinite = 0
	}
	m.iter = iter
	m.residSeen = false
	m.mu.Unlock()
}

// WantsResid reports whether the solver should fold the residual norm
// into its next finest-grid residual evaluation: true exactly once per
// iteration (the first residual of an iteration is ‖v − A·u‖, the
// convergence signal; later finest-grid residuals belong to the V-cycle's
// interior). Nil monitors never want one.
func (m *Monitor) WantsResid() bool {
	if m == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.residSeen
}

// ObserveResidual records the iteration residual: sumSq is the interior
// sum of squares over points grid points (the NPB rnm2 convention). It
// must follow a true WantsResid.
func (m *Monitor) ObserveResidual(sumSq float64, points int64) {
	if m == nil {
		return
	}
	norm := math.Sqrt(sumSq / float64(points))
	m.mu.Lock()
	m.residSeen = true
	m.observeNorm(norm)
	m.mu.Unlock()
}

// ObserveFinal records the closing residual norm of the solve (the NPB
// verification value) — one more contraction observation after the last
// iteration.
func (m *Monitor) ObserveFinal(rnm2, rnmu float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	if math.IsNaN(rnmu) || math.IsInf(rnmu, 0) {
		m.nonFinite++
		m.setVerdict(NonFinite)
	}
	m.observeNorm(rnm2)
	m.mu.Unlock()
}

// observeNorm folds one residual norm into the run state. Caller holds mu.
func (m *Monitor) observeNorm(norm float64) {
	if math.IsNaN(norm) || math.IsInf(norm, 0) {
		m.nonFinite++
		m.setVerdict(NonFinite)
		return
	}
	if m.first == 0 && m.ratios == 0 && m.last == 0 {
		m.first, m.last = norm, norm
		return
	}
	prev := m.last
	m.last = norm
	if prev == 0 {
		return // exact zero residual: nothing left to contract
	}
	ratio := norm / prev
	m.ratios++
	m.lastRatio = ratio
	if ratio > 0 {
		m.logSum += math.Log(ratio)
	}
	atFloor := m.first > 0 && norm <= m.first*FloorRatio
	switch {
	case ratio > DivergeRatio:
		m.setVerdict(Diverging)
	case ratio >= StallRatio && !atFloor:
		m.setVerdict(Stalled)
	case atFloor:
		if m.verdict == Unknown || m.verdict == Healthy {
			m.verdict = Converged
		}
	default:
		if m.verdict == Unknown {
			m.verdict = Healthy
		}
	}
}

// setVerdict latches an unhealthy verdict (first unhealthy observation
// wins; later good ratios never clear it). Caller holds mu.
func (m *Monitor) setVerdict(v Verdict) {
	if m.verdict == Stalled || m.verdict == Diverging || m.verdict == NonFinite {
		return
	}
	m.verdict = v
	m.verdictIter = m.iter
}

// ObserveNonFinite records a non-finite value caught by a sampled kernel
// guard.
func (m *Monitor) ObserveNonFinite(kernel string, level int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.nonFinite++
	if m.faultKernel == "" {
		m.faultKernel, m.faultLevel = kernel, level
	}
	m.setVerdict(NonFinite)
	m.mu.Unlock()
}

// WorkerLoad is one worker's share of the parallel-loop busy time.
type WorkerLoad struct {
	Worker      int     `json:"worker"`
	Loops       uint64  `json:"loops"`
	BusySeconds float64 `json:"busySeconds"`
	// Share is this worker's fraction of the summed busy time (1/W is
	// perfectly balanced).
	Share float64 `json:"share"`
}

// Report is the summarized health of one solve, rendered by WriteText /
// WritePrometheus and embedded in cmd/mg's -json summary.
type Report struct {
	Verdict string `json:"verdict"`
	// VerdictIteration is the iteration of the first unhealthy
	// observation (0 when the solve stayed healthy).
	VerdictIteration int `json:"verdictIteration,omitempty"`
	// Iterations is the number of contraction ratios observed.
	Iterations    int     `json:"iterations"`
	FirstResidual float64 `json:"firstResidual"`
	LastResidual  float64 `json:"lastResidual"`
	// ConvergenceRate is the geometric mean of the observed contraction
	// ratios; ExpectedRate is the package constant it is judged
	// against.
	ConvergenceRate float64 `json:"convergenceRate"`
	LastRatio       float64 `json:"lastRatio"`
	ExpectedRate    float64 `json:"expectedRate"`
	// NonFinite counts NaN/Inf observations; NonFiniteKernel names the
	// kernel whose sampled guard fired first, if any.
	NonFinite       uint64 `json:"nonFinite,omitempty"`
	NonFiniteKernel string `json:"nonFiniteKernel,omitempty"`
	NonFiniteLevel  int    `json:"nonFiniteLevel,omitempty"`
	// WorkerImbalance is max/mean of the per-worker busy times (1.0 is
	// perfectly balanced, 0 means no worker data was collected).
	WorkerImbalance float64      `json:"workerImbalance,omitempty"`
	Workers         []WorkerLoad `json:"workers,omitempty"`
}

// Report summarizes the monitor's run state, deriving the load-balance
// gauges from the collector snapshot (pass a zero Snapshot when no
// collector was attached). A nil monitor reports verdict "disabled".
func (m *Monitor) Report(snap metrics.Snapshot) Report {
	if m == nil {
		return Report{Verdict: "disabled"}
	}
	m.mu.Lock()
	r := Report{
		Verdict:          m.verdict.String(),
		VerdictIteration: m.verdictIter,
		Iterations:       m.ratios,
		FirstResidual:    m.first,
		LastResidual:     m.last,
		LastRatio:        m.lastRatio,
		ExpectedRate:     ExpectedRate,
		NonFinite:        m.nonFinite,
		NonFiniteKernel:  m.faultKernel,
		NonFiniteLevel:   m.faultLevel,
	}
	if m.ratios > 0 {
		r.ConvergenceRate = math.Exp(m.logSum / float64(m.ratios))
	}
	m.mu.Unlock()
	r.WorkerImbalance = imbalance(snap.Workers)
	r.Workers = workerLoads(snap.Workers)
	return r
}

// imbalance derives the max/mean busy-time ratio from the collector's
// per-worker statistics: 1.0 is perfectly balanced, W is one worker doing
// everything, 0 means no data.
func imbalance(workers []metrics.WorkerStat) float64 {
	var sum, maxBusy float64
	for _, w := range workers {
		b := float64(w.BusyNanos)
		sum += b
		if b > maxBusy {
			maxBusy = b
		}
	}
	if sum == 0 || len(workers) == 0 {
		return 0
	}
	return maxBusy / (sum / float64(len(workers)))
}

// workerLoads converts the collector's worker rows into report rows with
// busy-time shares.
func workerLoads(workers []metrics.WorkerStat) []WorkerLoad {
	var sum float64
	for _, w := range workers {
		sum += float64(w.BusyNanos)
	}
	var loads []WorkerLoad
	for _, w := range workers {
		l := WorkerLoad{Worker: w.Worker, Loops: w.Loops, BusySeconds: float64(w.BusyNanos) / 1e9}
		if sum > 0 {
			l.Share = float64(w.BusyNanos) / sum
		}
		loads = append(loads, l)
	}
	return loads
}

// WriteText renders the human-readable health block (cmd/mg -health).
func (r Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Convergence health\n")
	fmt.Fprintf(w, "verdict: %s", r.Verdict)
	if r.VerdictIteration > 0 {
		fmt.Fprintf(w, " (at iteration %d)", r.VerdictIteration)
	}
	fmt.Fprintln(w)
	if r.Iterations > 0 {
		fmt.Fprintf(w, "residual: %.6e -> %.6e over %d contractions\n",
			r.FirstResidual, r.LastResidual, r.Iterations)
		fmt.Fprintf(w, "convergence rate: %.4f per iteration (last %.4f, expected <= %.2f)\n",
			r.ConvergenceRate, r.LastRatio, r.ExpectedRate)
	}
	if r.NonFinite > 0 {
		fmt.Fprintf(w, "non-finite observations: %d", r.NonFinite)
		if r.NonFiniteKernel != "" {
			fmt.Fprintf(w, " (first sampled in %s@%d)", r.NonFiniteKernel, r.NonFiniteLevel)
		}
		fmt.Fprintln(w)
	}
	if r.WorkerImbalance > 0 {
		fmt.Fprintf(w, "worker imbalance: %.3f (max/mean busy)\n", r.WorkerImbalance)
		for _, l := range r.Workers {
			fmt.Fprintf(w, "worker %2d: %6d loops, %10.3f ms busy (%.1f%% share)\n",
				l.Worker, l.Loops, l.BusySeconds*1e3, l.Share*100)
		}
	}
}

// WritePrometheus renders the report as Prometheus text-format metrics,
// appended after the collector metrics on cmd/mg's /metrics endpoint.
// The verdict is a state metric: one mg_health_verdict series per known
// verdict, value 1 for the active one.
func (r Report) WritePrometheus(w io.Writer) {
	p := metrics.NewPromWriter(w)
	for _, v := range verdicts() {
		active := 0.0
		if v.String() == r.Verdict {
			active = 1
		}
		p.Gauge("mg_health_verdict", "Convergence verdict of the running solve (1 = active state).", active, "verdict", v.String())
	}
	p.Counter("mg_health_iterations_total", "Contraction ratios observed this solve.", float64(r.Iterations))
	p.Gauge("mg_health_residual_norm", "Most recent residual L2 norm (NPB rnm2).", r.LastResidual)
	p.Gauge("mg_health_convergence_rate", "Geometric-mean contraction ratio per iteration.", r.ConvergenceRate)
	p.Gauge("mg_health_expected_rate", "Configured expected contraction ratio.", r.ExpectedRate)
	p.Counter("mg_health_nonfinite_total", "NaN/Inf observations (sampled guards and norms).", float64(r.NonFinite))
	if r.WorkerImbalance > 0 {
		p.Gauge("mg_health_worker_imbalance", "Max/mean per-worker busy time (1 = balanced).", r.WorkerImbalance)
	}
}
