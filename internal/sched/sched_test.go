package sched

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
)

// coverFor runs a For loop and checks that every index in [0,n) is visited
// exactly once.
func coverFor(t *testing.T, p *Pool, n int) {
	t.Helper()
	visited := make([]int32, n)
	p.For(n, 0, func(lo, hi, worker int) {
		if worker < 0 || worker >= p.Workers() {
			t.Errorf("worker id %d out of range [0,%d)", worker, p.Workers())
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&visited[i], 1)
		}
	})
	for i, c := range visited {
		if c != 1 {
			t.Fatalf("workers %d n %d: index %d visited %d times", p.Workers(), n, i, c)
		}
	}
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4, 7} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 2, 5, 64, 1000, 1023} {
			coverFor(t, p, n)
		}
		p.Close()
	}
}

func TestForSequentialThreshold(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	ran := false
	p.For(10, 10, func(lo, hi, worker int) {
		if lo != 0 || hi != 10 || worker != 0 {
			t.Errorf("threshold run got (lo,hi,worker)=(%d,%d,%d), want (0,10,0)", lo, hi, worker)
		}
		ran = true
	})
	if !ran {
		t.Fatal("body never ran")
	}
	// Above the threshold the loop must be split (with 4 workers, static
	// block gives 4 calls).
	var calls atomic.Int32
	p.For(100, 10, func(lo, hi, worker int) { calls.Add(1) })
	if calls.Load() < 2 {
		t.Fatalf("loop above threshold not parallelized: %d calls", calls.Load())
	}
}

func TestForEmptyAndNegative(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	p.For(0, 0, func(lo, hi, worker int) { t.Error("body ran for n=0") })
	p.For(-5, 0, func(lo, hi, worker int) { t.Error("body ran for n<0") })
}

func TestSinglePoolWorkerRunsInline(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	if p.Workers() != 1 {
		t.Fatalf("Workers = %d", p.Workers())
	}
	calls := 0
	p.For(100, 0, func(lo, hi, worker int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Errorf("single worker split the range: [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
}

func TestNewPoolDefaultWorkers(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if p.Workers() < 1 {
		t.Fatalf("default pool has %d workers", p.Workers())
	}
}

func TestCloseIdempotentAndSequentialAfterClose(t *testing.T) {
	p := NewPool(4)
	p.Close()
	p.Close() // must not panic or deadlock
	ran := false
	p.For(10, 0, func(lo, hi, worker int) {
		ran = true
		if lo != 0 || hi != 10 {
			t.Error("closed pool did not run sequentially")
		}
	})
	if !ran {
		t.Fatal("closed pool dropped the loop")
	}
}

func TestPanicPropagation(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic was swallowed")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("unexpected panic payload %v", r)
		}
	}()
	p.For(100, 0, func(lo, hi, worker int) {
		if lo == 0 {
			panic("boom")
		}
	})
}

// The pool must survive a panic: subsequent loops still work.
func TestPoolUsableAfterPanic(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	func() {
		defer func() { recover() }()
		p.For(10, 0, func(lo, hi, worker int) { panic("x") })
	}()
	coverFor(t, p, 100)
}

func sumTo(n int) float64 { return float64(n) * float64(n-1) / 2 }

func TestReduceSum(t *testing.T) {
	for _, workers := range []int{1, 2, 5} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 10, 1000} {
			got := p.Reduce(n, 0, 0,
				func(lo, hi int) float64 {
					s := 0.0
					for i := lo; i < hi; i++ {
						s += float64(i)
					}
					return s
				},
				func(a, b float64) float64 { return a + b })
			if got != sumTo(n) {
				t.Errorf("workers %d n %d: Reduce = %g, want %g", workers, n, got, sumTo(n))
			}
		}
		p.Close()
	}
}

func TestReduceMax(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	vals := make([]float64, 997)
	for i := range vals {
		vals[i] = math.Sin(float64(i) * 12.9898)
	}
	got := p.Reduce(len(vals), 0, math.Inf(-1),
		func(lo, hi int) float64 {
			m := math.Inf(-1)
			for i := lo; i < hi; i++ {
				if vals[i] > m {
					m = vals[i]
				}
			}
			return m
		},
		math.Max)
	want := math.Inf(-1)
	for _, v := range vals {
		want = math.Max(want, v)
	}
	if got != want {
		t.Fatalf("Reduce max = %g, want %g", got, want)
	}
}

// Determinism: floating-point sums must be bit-identical across worker
// counts because partials are combined in block order. We construct values
// whose naive left-to-right sum differs from other orders, then check all
// pools agree with the 1-worker pool given the same block structure.
func TestReduceDeterministicAcrossRuns(t *testing.T) {
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = 1e-15 * float64(i%97) * math.Pow(10, float64(i%31)-15)
	}
	p := NewPool(6)
	defer p.Close()
	run := func() float64 {
		return p.Reduce(len(vals), 0, 0,
			func(lo, hi int) float64 {
				s := 0.0
				for i := lo; i < hi; i++ {
					s += vals[i]
				}
				return s
			},
			func(a, b float64) float64 { return a + b })
	}
	first := run()
	for i := 0; i < 20; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d: Reduce = %v, want %v (non-deterministic)", i, got, first)
		}
	}
}

// Property: For computes the same per-index result as a plain loop (each
// worker writes only its own sub-range — no races).
func TestForMatchesSequentialQuick(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	f := func(seed uint16) bool {
		n := int(seed%500) + 1
		out := make([]float64, n)
		p.For(n, 0, func(lo, hi, w int) {
			for i := lo; i < hi; i++ {
				out[i] = float64(i) * 1.5
			}
		})
		for i := 0; i < n; i++ {
			if out[i] != float64(i)*1.5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkForOverhead(b *testing.B) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		b.Run(map[int]string{1: "seq", 4: "par4"}[workers], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.For(1024, 0, func(lo, hi, w int) {
					for j := lo; j < hi; j++ {
						_ = j
					}
				})
			}
		})
		p.Close()
	}
}

// Busy accounting: with a collector attached, every parallel fan-out
// records one loop and a positive busy time per participating worker;
// the single-worker pool and the sequential fast path record nothing.
func TestBusyAccountingPerWorkerCount(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		p := NewPool(workers)
		c := metrics.NewCollector(workers)
		p.SetMetrics(c)
		const fanouts = 3
		var total atomic.Int64
		for i := 0; i < fanouts; i++ {
			p.For(1<<14, 0, func(lo, hi, worker int) {
				var s int64
				for j := lo; j < hi; j++ {
					s += int64(j)
				}
				total.Add(s)
			})
		}
		snap := c.Snapshot()
		if workers == 1 {
			// Inline path: no fan-out, so no per-worker accounting.
			if len(snap.Workers) != 0 {
				t.Fatalf("1 worker recorded busy shards: %+v", snap.Workers)
			}
			p.Close()
			continue
		}
		if len(snap.Workers) != workers {
			t.Fatalf("%d workers: %d busy shards", workers, len(snap.Workers))
		}
		for _, ws := range snap.Workers {
			if ws.Loops != fanouts {
				t.Fatalf("%d workers: worker %d took part in %d loops, want %d",
					workers, ws.Worker, ws.Loops, fanouts)
			}
			if ws.BusyNanos == 0 {
				t.Fatalf("%d workers: worker %d recorded zero busy time", workers, ws.Worker)
			}
		}
		p.Close()
	}
}

// With a tracer attached, each parallel fan-out emits one "wspan" event
// per worker; the sequential threshold path emits none.
func TestWspanEmission(t *testing.T) {
	var buf bytes.Buffer
	tr := metrics.NewTracer(&buf)
	p := NewPool(2)
	defer p.Close()
	p.SetTracer(tr)
	p.For(1<<12, 0, func(lo, hi, worker int) {})
	p.For(8, 64, func(lo, hi, worker int) {})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	events, torn, err := metrics.ReadEventsTolerant(&buf)
	if err != nil || torn != 0 {
		t.Fatalf("reading the trace: %d torn lines, err %v", torn, err)
	}
	seen := map[int]int{}
	for _, e := range events {
		if e.Ev != "wspan" {
			t.Fatalf("unexpected event %q from the pool", e.Ev)
		}
		seen[e.Worker]++
		if e.Nanos < 0 {
			t.Fatalf("negative wspan duration %d", e.Nanos)
		}
	}
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 1 {
		t.Fatalf("wspan events per worker = %v, want one for each of 2 workers", seen)
	}
}

// A shared pool must multiplex concurrent For calls from many goroutines
// — the service mode of cmd/mgd, where every in-flight solve schedules
// onto one worker set. Each caller's range must still be covered exactly
// once.
func TestConcurrentForOnSharedPool(t *testing.T) {
	p := NewPersistent(4)
	const (
		callers = 8
		n       = 1 << 14
	)
	var wg sync.WaitGroup
	sums := make([]int64, callers)
	for c := 0; c < callers; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				var sum atomic.Int64
				p.For(n, 0, func(lo, hi, _ int) {
					s := int64(0)
					for i := lo; i < hi; i++ {
						s += int64(i)
					}
					sum.Add(s)
				})
				sums[c] = sum.Load()
			}
		}()
	}
	wg.Wait()
	want := int64(n) * int64(n-1) / 2
	for c, got := range sums {
		if got != want {
			t.Fatalf("caller %d: sum = %d, want %d", c, got, want)
		}
	}
}

// Close on a persistent pool is a no-op: the pool keeps executing in
// parallel afterwards. Sequential and Shared are persistent.
func TestPersistentPoolIgnoresClose(t *testing.T) {
	p := NewPersistent(2)
	p.Close()
	if p.closed.Load() {
		t.Fatal("Close marked a persistent pool closed")
	}
	hit := map[int]bool{}
	var mu sync.Mutex
	p.For(1<<12, 0, func(lo, hi, worker int) {
		mu.Lock()
		hit[worker] = true
		mu.Unlock()
	})
	if len(hit) != 2 {
		t.Fatalf("workers used after Close = %v, want both", hit)
	}
	if !Sequential.Persistent() {
		t.Fatal("Sequential is not persistent")
	}
	if s := Shared(); !s.Persistent() || s != Shared() {
		t.Fatal("Shared must return one persistent pool")
	}
}

// Close racing concurrent For calls must neither panic (send on closed
// channel) nor lose range coverage: an in-flight fan-out completes, a
// late one runs inline.
func TestCloseRacesConcurrentFor(t *testing.T) {
	for rep := 0; rep < 20; rep++ {
		p := NewPool(4)
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var sum atomic.Int64
				p.For(1<<10, 0, func(lo, hi, _ int) {
					for i := lo; i < hi; i++ {
						sum.Add(int64(i))
					}
				})
				if want := int64(1<<10) * (1<<10 - 1) / 2; sum.Load() != want {
					panic("range not covered exactly once")
				}
			}()
		}
		p.Close()
		wg.Wait()
	}
}
