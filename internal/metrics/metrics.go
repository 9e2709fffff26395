// Package metrics is the observability layer of the WITH-loop runtime: a
// low-overhead collector of per-(kernel, grid-level) execution statistics
// and a structured V-cycle event tracer (trace.go).
//
// The paper's entire argument is measurement — per-class runtimes and
// multiprocessor speedups — and the per-region instrumentation literature
// (Barakhshan & Eigenmann, PAPERS.md) shows that such comparisons need
// per-kernel numbers, not end-to-end wall clock alone. This package gives
// the fused kernels and the scheduler one shared sink:
// invocation counts, points processed and nanoseconds per (kernel, level),
// from which the report derives effective GFLOP/s and memory bandwidth.
//
// # Sharding and the disabled fast path
//
// A Collector holds one shard per worker. A worker only ever touches its
// own shard (guarded by an uncontended per-shard mutex and padded to a
// cache line, so concurrent workers never bounce a shared line), and the
// shards are merged only at read time by Snapshot — there are no atomics
// and no shared counters on the recording path. The disabled path is a nil
// *Collector: every method is nil-safe, so instrumented code calls
// c.Record(...) unconditionally and a disabled run pays one nil check and
// zero allocations (asserted by TestMetricsDisabledZeroAlloc and the
// BenchmarkMetricsDisabled/Enabled pair in the root package).
package metrics

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"
	"time"
)

// Key identifies one instrumented kernel at one MG grid level (log2 of the
// interior extent).
type Key struct {
	Kernel string
	Level  int
}

// String renders e.g. "subRelax@5".
func (k Key) String() string { return fmt.Sprintf("%s@%d", k.Kernel, k.Level) }

// Hist is a histogram of non-negative integer samples (nanoseconds,
// queue depths) with power-of-two buckets: Counts[0] holds samples v ≤ 1
// and Counts[i] those with 2^(i−1) < v ≤ 2^i, so bucket i's bound 2^i is
// inclusive, as Prometheus's le requires. Sum is the exact total of the
// samples. Bucketing is a bit-length computation, and the fixed array
// makes Observe and Merge allocation-free and a copy a snapshot.
type Hist struct {
	Counts [64]uint64 `json:"counts"`
	Sum    uint64     `json:"sum"`
}

// Observe adds one sample. Negative samples (clock weirdness) count as
// zero rather than corrupting the bucket index.
func (h *Hist) Observe(v int64) {
	v = max(v, 0)
	h.Sum += uint64(v)
	h.Counts[bits.Len64(uint64(max(v, 1)-1))]++
}

// Merge adds o's samples to h.
func (h *Hist) Merge(o *Hist) {
	for i, n := range o.Counts {
		h.Counts[i] += n
	}
	h.Sum += o.Sum
}

// Count returns the number of samples.
func (h *Hist) Count() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// cell accumulates one (kernel, level) inside one shard.
type cell struct {
	points  uint64
	variant string // last recorded kernel variant; "" = none reported
	hist    Hist   // invocation durations in nanoseconds
}

// shard is the private accumulator of one worker. The mutex is uncontended
// by construction (only worker w records into shard w; Snapshot locks all
// shards at read time) and the padding keeps neighbouring shards off the
// same cache line.
type shard struct {
	mu      sync.Mutex
	kernels map[Key]*cell
	loops   uint64 // parallel loop executions this worker took part in
	busy    uint64 // nanoseconds spent inside those loop bodies
	_       [64]byte
}

// Collector accumulates per-(kernel, level) statistics across workers.
// The zero value is not usable; use NewCollector. A nil *Collector is the
// disabled collector: every method is a cheap no-op.
type Collector struct {
	shards []shard
}

// NewCollector creates a collector for a pool of the given worker count
// (workers < 1 is treated as 1). Worker indices passed to Record wrap
// around the shard count, so a collector can safely outlive pool resizes.
func NewCollector(workers int) *Collector {
	if workers < 1 {
		workers = 1
	}
	c := &Collector{shards: make([]shard, workers)}
	for i := range c.shards {
		c.shards[i].kernels = map[Key]*cell{}
	}
	return c
}

// Record adds one finished kernel invocation to worker's shard: points
// index vectors processed in elapsed wall time. Record on a nil collector
// is a no-op and allocates nothing.
func (c *Collector) Record(worker int, kernel string, level int, points int64, elapsed time.Duration) {
	c.RecordVariant(worker, kernel, level, "", points, elapsed)
}

// RecordVariant is Record for kernels with multiple inner-loop backends:
// variant names the one this invocation dispatched to (withloop's
// scalar/buffered/simd). The row remembers the latest non-empty variant;
// a (kernel, level) runs one backend for the life of an environment, so
// that is the variant every recorded invocation ran.
func (c *Collector) RecordVariant(worker int, kernel string, level int, variant string, points int64, elapsed time.Duration) {
	if c == nil {
		return
	}
	s := &c.shards[worker%len(c.shards)]
	key := Key{Kernel: kernel, Level: level}
	s.mu.Lock()
	cl := s.kernels[key]
	if cl == nil {
		cl = &cell{}
		s.kernels[key] = cl
	}
	cl.points += uint64(points)
	if variant != "" {
		cl.variant = variant
	}
	cl.hist.Observe(int64(elapsed))
	s.mu.Unlock()
}

// RecordBusy adds one parallel-loop participation of worker: elapsed wall
// time spent inside the loop body (sched.Pool calls this once per worker
// per fan-out). RecordBusy on a nil collector is a no-op.
func (c *Collector) RecordBusy(worker int, elapsed time.Duration) {
	if c == nil {
		return
	}
	s := &c.shards[worker%len(c.shards)]
	s.mu.Lock()
	s.loops++
	s.busy += uint64(elapsed)
	s.mu.Unlock()
}

// Reset clears every shard.
func (c *Collector) Reset() {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.kernels = map[Key]*cell{}
		s.loops, s.busy = 0, 0
		s.mu.Unlock()
	}
}

// KernelStat is the merged statistic of one (kernel, level). Hist holds
// the invocation durations in nanoseconds; Invocations and Nanos are its
// count and sum.
type KernelStat struct {
	Kernel      string `json:"kernel"`
	Level       int    `json:"level"`
	Invocations uint64 `json:"invocations"`
	Points      uint64 `json:"points"`
	Nanos       uint64 `json:"nanos"`
	// Variant is the kernel backend the invocations dispatched to
	// (RecordVariant); empty for kernels with a single backend.
	Variant string `json:"variant,omitempty"`
	Hist    Hist   `json:"hist"`
}

// Seconds returns the accumulated wall time.
func (k KernelStat) Seconds() float64 { return float64(k.Nanos) / 1e9 }

// GFLOPS derives the effective arithmetic rate from a per-point flop cost.
func (k KernelStat) GFLOPS(flopsPerPoint float64) float64 {
	if k.Nanos == 0 {
		return 0
	}
	return float64(k.Points) * flopsPerPoint / float64(k.Nanos)
}

// GBPerSec derives the effective memory bandwidth from a per-point byte
// cost (unique traffic: each stream counted once, not per stencil read).
func (k KernelStat) GBPerSec(bytesPerPoint float64) float64 {
	if k.Nanos == 0 {
		return 0
	}
	return float64(k.Points) * bytesPerPoint / float64(k.Nanos)
}

// WorkerStat is the merged per-worker scheduler statistic.
type WorkerStat struct {
	Worker    int    `json:"worker"`
	Loops     uint64 `json:"loops"`
	BusyNanos uint64 `json:"busyNanos"`
}

// Snapshot is a merged, read-only view of a collector, ordered by kernel
// name then level. It marshals cleanly to JSON (the expvar endpoint of
// cmd/mg publishes it).
type Snapshot struct {
	Kernels []KernelStat `json:"kernels"`
	Workers []WorkerStat `json:"workers"`
}

// Snapshot merges all shards. It is the only operation that crosses
// shards; recording continues unhindered on other workers.
func (c *Collector) Snapshot() Snapshot {
	var snap Snapshot
	if c == nil {
		return snap
	}
	merged := map[Key]*KernelStat{}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for key, cl := range s.kernels {
			m := merged[key]
			if m == nil {
				m = &KernelStat{Kernel: key.Kernel, Level: key.Level}
				merged[key] = m
			}
			m.Points += cl.points
			if cl.variant != "" {
				m.Variant = cl.variant
			}
			m.Hist.Merge(&cl.hist)
		}
		if s.loops > 0 {
			snap.Workers = append(snap.Workers, WorkerStat{Worker: i, Loops: s.loops, BusyNanos: s.busy})
		}
		s.mu.Unlock()
	}
	for _, m := range merged {
		m.Invocations, m.Nanos = m.Hist.Count(), m.Hist.Sum
		snap.Kernels = append(snap.Kernels, *m)
	}
	sort.Slice(snap.Kernels, func(i, j int) bool {
		a, b := snap.Kernels[i], snap.Kernels[j]
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		return a.Level < b.Level
	})
	return snap
}

// Cost is the per-point work model of one kernel, used to derive the
// GFLOP/s and bandwidth columns of the report.
type Cost struct {
	// Flops is the floating-point operations per output point.
	Flops float64
	// Bytes is the unique memory traffic per output point (each input and
	// output stream counted once — the cache-resident stencil re-reads are
	// excluded, so the column reads as effective bandwidth).
	Bytes float64
}

// CostModel resolves the per-point work model of one kernel row given
// the backend variant its invocations dispatched to (KernelStat.Variant;
// core.KernelCost is the canonical implementation). A zero Cost means
// "no model": the row gets no derived throughput columns.
type CostModel func(kernel, variant string) Cost

// CostMap adapts a variant-blind per-kernel cost table to a CostModel.
func CostMap(m map[string]Cost) CostModel {
	return func(kernel, _ string) Cost { return m[kernel] }
}

// TotalKernel is the pseudo-kernel name under which whole-solve spans are
// recorded (core.Benchmark.Solve); Coverage measures every other kernel
// against it.
const TotalKernel = "solve"

// Coverage reports which fraction of the accumulated TotalKernel time the
// remaining kernels account for — the "do the per-kernel numbers explain
// the end-to-end time" check. ok is false when no solve span was recorded.
func (s Snapshot) Coverage() (fraction float64, ok bool) {
	var kernelNanos, totalNanos uint64
	for _, k := range s.Kernels {
		if k.Kernel == TotalKernel {
			totalNanos += k.Nanos
		} else {
			kernelNanos += k.Nanos
		}
	}
	if totalNanos == 0 {
		return 0, false
	}
	return float64(kernelNanos) / float64(totalNanos), true
}

// WriteReport renders the per-(kernel, level) table. costs supplies the
// per-point work model per (kernel, variant); rows resolving to a zero
// Cost get no derived columns. A coverage line follows when a solve span
// was recorded.
func (s Snapshot) WriteReport(w io.Writer, costs CostModel) {
	fmt.Fprintf(w, "Per-kernel metrics\n")
	fmt.Fprintf(w, "%-18s %6s %9s %8s %14s %12s %9s %8s\n",
		"kernel", "level", "variant", "calls", "points", "ms", "GFLOP/s", "GB/s")
	for _, k := range s.Kernels {
		line := fmt.Sprintf("%-18s %6d %9s %8d %14d %12.3f", k.Kernel, k.Level,
			k.Variant, k.Invocations, k.Points, k.Seconds()*1e3)
		if cost := costs(k.Kernel, k.Variant); cost != (Cost{}) {
			line += fmt.Sprintf(" %9.2f %8.2f", k.GFLOPS(cost.Flops), k.GBPerSec(cost.Bytes))
		}
		fmt.Fprintln(w, line)
	}
	if frac, ok := s.Coverage(); ok {
		fmt.Fprintf(w, "kernel coverage: %.1f%% of solve time\n", frac*100)
	}
	for _, ws := range s.Workers {
		fmt.Fprintf(w, "worker %2d: %6d parallel loops, %10.3f ms busy\n",
			ws.Worker, ws.Loops, float64(ws.BusyNanos)/1e6)
	}
}
