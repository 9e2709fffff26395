package nas_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/cport"
	"repro/internal/f77"
	"repro/internal/nas"
	"repro/internal/periodic"
	wl "repro/internal/withloop"
)

// TestSolveContract holds every single-process implementation to the
// nas.Benchmark contract at class S: Run verifies, Reset+Solve is
// repeatable to the bit on one instance, and Cancel (where the
// implementation has one) is polled once per iteration and stops the
// solve on its first true, leaving the norms of a solve that had only
// the iterations before it.
func TestSolveContract(t *testing.T) {
	class := nas.ClassS
	impls := []struct {
		name string
		// build returns a fresh benchmark; cancel, when non-nil, installs
		// f as its Cancel hook.
		build  func(nas.Class) nas.Benchmark
		cancel func(b nas.Benchmark, f func() bool)
	}{
		{"sac", func(c nas.Class) nas.Benchmark { return core.NewBenchmark(c, wl.Default()) },
			func(b nas.Benchmark, f func() bool) { b.(*core.Benchmark).Solver.Cancel = f }},
		{"periodic", func(c nas.Class) nas.Benchmark { return periodic.NewBenchmark(c, wl.Default()) }, nil},
		{"f77", func(c nas.Class) nas.Benchmark { return f77.New(c) },
			func(b nas.Benchmark, f func() bool) { b.(*f77.Solver).Cancel = f }},
		{"c", func(c nas.Class) nas.Benchmark { return cport.New(c) },
			func(b nas.Benchmark, f func() bool) { b.(*cport.Solver).Cancel = f }},
	}
	for _, impl := range impls {
		t.Run(impl.name, func(t *testing.T) {
			b := impl.build(class)
			rnm2, _ := b.(interface{ Run() (float64, float64) }).Run()
			if ok, known := class.Verify(rnm2); !ok || !known {
				t.Fatalf("Run: rnm2 %.13e does not verify", rnm2)
			}
			if b.U() == nil {
				t.Fatal("U is nil after Run")
			}
			for i := 0; i < 2; i++ {
				b.Reset()
				again, _ := b.Solve()
				if math.Float64bits(again) != math.Float64bits(rnm2) {
					t.Fatalf("Reset+Solve #%d: rnm2 %.17e, Run gave %.17e", i+1, again, rnm2)
				}
			}
			if impl.cancel == nil {
				return
			}
			for _, k := range []int{0, 1, class.Iter - 1} {
				calls := 0
				impl.cancel(b, func() bool { calls++; return calls == k+1 })
				b.Reset()
				got, _ := b.Solve()
				if calls != k+1 {
					t.Errorf("Cancel true on call %d: polled %d times, want %d", k+1, calls, k+1)
				}
				short := class
				short.Iter = k
				ref := impl.build(short)
				ref.Reset()
				if want, _ := ref.Solve(); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("Cancel true on call %d: rnm2 %.17e, want %.17e (a %d-iteration solve)", k+1, got, want, k)
				}
			}
			impl.cancel(b, nil)
		})
	}
}
