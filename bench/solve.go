package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/mempool"
	"repro/internal/metrics"
	"repro/internal/nas"
	wl "repro/internal/withloop"
)

// solveSection is the in-process solver load: the SAC O3 solve of
// cmd/mg -impl sac (one worker, default dispatch) alternating with the
// F77 solve, one pair per round.
type solveSection struct {
	class nas.Class
	check bitsChecker

	env *wl.Env
	b   *core.Benchmark
	ref *refSolver

	// coldPool is the pool's counters after the first solve on a fresh
	// environment — what a one-shot cmd/mg run allocates.
	coldPool mempool.Stats
	rows     kernelRows
	usage    usage // summed over the traced SAC solves
}

func newSolveSection(class nas.Class) *solveSection { return &solveSection{class: class} }

func (s *solveSection) prepare() error { return nil }

func (s *solveSection) setup() error {
	s.env = wl.Default()
	s.b = core.NewBenchmark(s.class, s.env)
	s.b.Reset()
	rnm2, _ := s.b.Solve() // warm-up: faults the pool's buffers in
	s.coldPool = s.env.Pool.Stats()
	if err := s.check.checkSolve("sac", s.class, rnm2); err != nil {
		return err
	}
	ref, err := newRefSolver(s.class, &s.check)
	s.ref = ref
	return err
}

func (s *solveSection) teardown() error {
	s.env.Close()
	s.env, s.b, s.ref = nil, nil, nil
	return nil
}

func (s *solveSection) peakRSSMB() (float64, error) { return peakRSSMB(os.Getpid()) }

func (s *solveSection) pass(dur time.Duration, tr *tracer) *tally {
	t := newTally()
	var col *metrics.Collector
	if tr != nil {
		col = metrics.NewCollector(1)
		s.env.AttachMetrics(col)
		defer s.env.AttachMetrics(nil)
	}
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < dur; round++ {
		req := fmt.Sprintf("sac-%d", round)
		col.Reset()
		before := readUsage()
		id := tr.begin(0, "core.Benchmark.Solve", req)
		t0 := time.Now()
		rnm2, _ := s.b.Solve()
		secs := time.Since(t0).Seconds()
		tr.end(id)
		if tr != nil {
			s.usage = s.usage.add(readUsage().sub(before))
			names, nanos := s.rows.add(col.Snapshot())
			tr.reported(id, req, 0, names, nanos)
		}
		err := s.check.checkSolve("sac", s.class, rnm2)
		t.record(kindOp, secs, err)

		ref, ok := s.ref.timed(t, &s.check, kindAlt, tr, fmt.Sprintf("f77-%d", round))
		if err == nil && ok {
			t.rates = append(t.rates, 2/(secs+ref))
			t.ratios = append(t.ratios, secs/ref)
		}
	}
	t.samples[kindRef] = t.samples[kindAlt] // here the alt operation is the F77 reference itself
	return t
}

// kernelRows accumulates metrics.Collector snapshots, one per solve,
// bucketed per kernel from its finest level down.
type kernelRows struct {
	solves     int
	solveNanos uint64
	rowNanos   uint64                // every row but the solve total
	bucket     map[string][4]uint64  // kernel → nanos per levelBuckets entry
	top        map[string]metricsTop // kernel → its finest row, summed
}

type metricsTop struct {
	points, nanos uint64
	variant       string
}

// add folds one solve's snapshot in and returns the rows as span names
// and durations, for the solve span's reported children.
func (k *kernelRows) add(snap metrics.Snapshot) (names []string, nanos []int64) {
	if k.bucket == nil {
		k.bucket = map[string][4]uint64{}
		k.top = map[string]metricsTop{}
	}
	k.solves++
	finest := map[string]int{}
	for _, row := range snap.Kernels {
		if row.Level > finest[row.Kernel] {
			finest[row.Kernel] = row.Level
		}
	}
	for _, row := range snap.Kernels {
		if row.Kernel == metrics.TotalKernel {
			k.solveNanos += row.Nanos
			continue
		}
		k.rowNanos += row.Nanos
		names = append(names, fmt.Sprintf("core.%s@%d", row.Kernel, row.Level))
		nanos = append(nanos, int64(row.Nanos))
		depth := finest[row.Kernel] - row.Level
		if depth > 3 {
			depth = 3
		}
		b := k.bucket[row.Kernel]
		b[depth] += row.Nanos
		k.bucket[row.Kernel] = b
		if depth == 0 {
			top := k.top[row.Kernel]
			top.points += row.Points
			top.nanos += row.Nanos
			top.variant = row.Variant
			k.top[row.Kernel] = top
		}
	}
	return names, nanos
}

// emit writes the core.* kernel metrics, per solve.
func (k *kernelRows) emit(rep *report, host hostProbe) {
	per := float64(k.solves) * 1e9
	for _, kernel := range coreKernels {
		for i, b := range levelBuckets {
			rep.set("core."+kernel+"."+b+"_s", float64(k.bucket[kernel][i])/per)
		}
		top := k.top[kernel]
		cost := core.KernelCost(kernel, top.variant)
		gbs := float64(top.points) * cost.Bytes / float64(top.nanos)
		rep.set("core."+kernel+".top_gbs_computed", gbs)
		if kernel == "comm3" {
			continue
		}
		gflops := float64(top.points) * cost.Flops / float64(top.nanos)
		rep.set("core."+kernel+".top_gflops", gflops)
		// Roofline: the lower of the measured flop rate and the measured
		// bandwidth times the kernel's computed operations per byte.
		roof := host.flopsGF
		if bw := host.triadGBs * cost.Flops / cost.Bytes; bw < roof {
			roof = bw
		}
		rep.set("core."+kernel+".top_roofline_frac", gflops/roof)
	}
	rep.set("core.glue_s", (float64(k.solveNanos)-float64(k.rowNanos))/per)
	rep.set("core.coverage", float64(k.rowNanos)/float64(k.solveNanos))
}
