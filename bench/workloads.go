package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/array"
	"repro/internal/f77"
	"repro/internal/nas"
)

// workload is one set of inputs the benchmark runs. Its focus names the
// section whose load it applies; its class is the NPB problem size every
// layer is measured at in the workload's traced run.
type workload struct {
	name  string
	class nas.Class
	focus string // "solve", "service" or "dist"
}

// The four workloads. Per workload, the uniform end-to-end metrics mean:
//
//	            op (op_best_ms)       alt (alt_best_ms)      vs_f77
//	solve_A/W   SAC O3 solve          F77 solve              SAC / F77, median over the rounds
//	service_mix cold HTTP request     cache-hit request      best cold / best F77 class-S solve
//	dist_W2     2-rank sync solve     2-rank overlap solve   sync / F77 class-W solve, median over the rounds
//
// ops_per_s is the best round's (or the best slice's of the clients'
// window) completed op+alt operations per second of load. Every loop is
// closed: a caller issues its next operation when the previous one has
// returned.
var workloads = []workload{
	{"solve_A", nas.ClassA, "solve"},
	{"solve_W", nas.ClassW, "solve"},
	{"service_mix", nas.ClassS, "service"},
	{"dist_W2", nas.ClassW, "dist"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// config is what one run is told.
type config struct {
	seed     uint64
	seconds  float64
	tiny     bool   // test mode: class S everywhere, one round per pass
	buildDir string // where the mgd binary and its log go
	outDir   string // where trace files go
}

// section is one way of loading the system: in-process solves, HTTP
// traffic to an mgd child, or a 2-rank distributed solve. prepare runs
// once (builds, expected outputs); setup builds the warm state a pass
// needs and is what setup_s times; pass applies the closed-loop load for
// at least dur and at least one round, recording spans when tr is
// non-nil; teardown releases everything setup made.
type section interface {
	prepare() error
	setup() error
	pass(dur time.Duration, tr *tracer) *tally
	teardown() error
	peakRSSMB() (float64, error)
}

// Op kinds of a tally.
const (
	kindOp  = "op"
	kindAlt = "alt"
	kindRef = "ref" // the interleaved F77 reference solve
)

// tally is the failure accounting of one pass: every operation is
// attempted; one that fails its check is counted as failed and its
// latency is dropped, so a fast wrong answer cannot improve a median.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	samples   map[string][]float64 // seconds, successful operations only
	firstErr  error
	// rates holds the throughput, in op and alt operations per second, of
	// each round (or each slice of the clients' window).
	rates []float64
	// ratios holds, per round, the op's time over that of the reference
	// solve next to it: vs_f77 is their median. The service section, whose
	// reference solves cannot run beside its requests, files one ratio per
	// pass, best cold request over best reference solve.
	ratios []float64
}

func newTally() *tally { return &tally{samples: map[string][]float64{}} }

func (t *tally) record(kind string, seconds float64, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = fmt.Errorf("%s operation %d: %w", kind, t.attempted, err)
		}
		return
	}
	t.samples[kind] = append(t.samples[kind], seconds)
}

// fail records an operation that could not even be attempted properly
// (the daemon did not start, the mesh did not form).
func (t *tally) fail(err error) { t.record(kindOp, 0, err) }

// merge folds another pass's accounting and samples into t.
func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	for kind, secs := range o.samples {
		t.samples[kind] = append(t.samples[kind], secs...)
	}
	t.rates = append(t.rates, o.rates...)
	t.ratios = append(t.ratios, o.ratios...)
}

// bitsChecker holds the first rnm2 seen per kind of solve: every later
// solve of that kind must reproduce it bit for bit.
type bitsChecker struct {
	mu    sync.Mutex
	first map[string]uint64
}

// checkSolve is the correctness rule of one solve of the official
// problem: the NPB verification passes and rnm2 repeats the first solve
// of the same kind exactly.
func (b *bitsChecker) checkSolve(kind string, class nas.Class, rnm2 float64) error {
	if ok, known := class.Verify(rnm2); !known || !ok {
		return fmt.Errorf("%s rnm2 %.13e fails NPB verification for class %c", kind, rnm2, class.Name)
	}
	bits := math.Float64bits(rnm2)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.first == nil {
		b.first = map[string]uint64{}
	}
	first, seen := b.first[kind]
	if !seen {
		b.first[kind] = bits
		return nil
	}
	if first != bits {
		return fmt.Errorf("%s rnm2 bits %016x differ from the first solve's %016x", kind, bits, first)
	}
	return nil
}

// npbSolver is the shape the two paper baselines, f77 and cport, share.
type npbSolver interface {
	Reset()
	U() *array.Array
	EvalResid()
	MG3P()
	Norms() (rnm2, rnmu float64)
}

// refSolver is a warm baseline solver. Every section keeps an F77 one
// for the vs_f77 reference (in the solve section it is also the alt
// operation).
type refSolver struct {
	class nas.Class
	name  string
	s     npbSolver
}

// newRefSolver resets the solver and runs one untimed solve so the grids
// are faulted in.
func newRefSolver(class nas.Class, check *bitsChecker) (*refSolver, error) {
	return warmSolver(class, "f77", f77.New(class), check)
}

func warmSolver(class nas.Class, name string, s npbSolver, check *bitsChecker) (*refSolver, error) {
	r := &refSolver{class: class, name: name, s: s}
	r.s.Reset()
	_, rnm2 := r.solve()
	return r, check.checkSolve(name, class, rnm2)
}

// solve runs the NPB timed section (initial residual, Iter V-cycles,
// norms) on a zeroed solution and returns its wall time. Zeroing the
// finest u restarts the solve exactly: MG3P rewrites every coarser grid.
func (r *refSolver) solve() (seconds, rnm2 float64) {
	r.s.U().Zero()
	start := time.Now()
	r.s.EvalResid()
	for it := 0; it < r.class.Iter; it++ {
		r.s.MG3P()
		r.s.EvalResid()
	}
	rnm2, _ = r.s.Norms()
	return time.Since(start).Seconds(), rnm2
}

// timed runs one reference solve under a span, records it, and returns
// its time and whether it passed its check.
func (r *refSolver) timed(t *tally, check *bitsChecker, kind string, tr *tracer, req string) (float64, bool) {
	id := tr.begin(0, r.name+".Solver solve", req)
	secs, rnm2 := r.solve()
	tr.end(id)
	err := check.checkSolve(r.name, r.class, rnm2)
	t.record(kind, secs, err)
	return secs, err == nil
}

// waitGoroutines waits until the goroutine count is back at baseline; a
// goroutine that outlives its workload is reported, not ignored.
func waitGoroutines(baseline int) error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d goroutines outlived the workload (baseline %d)", n-baseline, baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
