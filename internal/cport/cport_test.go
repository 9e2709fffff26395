package cport

import (
	"math"
	"testing"
	"time"

	"repro/internal/f77"
	"repro/internal/nas"
	"repro/internal/sched"
)

func TestVerifyClassS(t *testing.T) {
	s := New(nas.ClassS)
	rnm2, _ := s.Run()
	if verified, ok := nas.ClassS.Verify(rnm2); !ok || !verified {
		want, _, _ := nas.ClassS.VerifyValue()
		t.Fatalf("class S rnm2 = %.13e, want %.13e", rnm2, want)
	}
}

func TestVerifyClassW(t *testing.T) {
	if testing.Short() {
		t.Skip("class W skipped in -short")
	}
	s := New(nas.ClassW)
	rnm2, _ := s.Run()
	if verified, ok := nas.ClassW.Verify(rnm2); !ok || !verified {
		want, _, _ := nas.ClassW.VerifyValue()
		t.Fatalf("class W rnm2 = %.13e, want %.13e", rnm2, want)
	}
}

// The C port and the Fortran port execute identical arithmetic (the same
// buffers, the same statement order), so their results are bit-identical.
func TestBitIdenticalToF77(t *testing.T) {
	c := New(nas.ClassS)
	cNorm, _ := c.Run()
	f := f77.New(nas.ClassS)
	fNorm, _ := f.Run()
	if cNorm != fNorm {
		t.Fatalf("cport %.17e != f77 %.17e", cNorm, fNorm)
	}
	if !c.U().Equal(f.U()) {
		t.Fatal("solution grids differ between cport and f77")
	}
}

// OpenMP-style parallel execution changes nothing.
func TestParallelBitIdentical(t *testing.T) {
	serial, _ := New(nas.ClassS).Run()
	for _, workers := range []int{2, 4} {
		pool := sched.NewPool(workers)
		s := NewParallel(nas.ClassS, pool)
		rnm2, _ := s.Run()
		pool.Close()
		if rnm2 != serial {
			t.Fatalf("%d workers: %.17e != serial %.17e", workers, rnm2, serial)
		}
	}
}

func TestDirectiveInventory(t *testing.T) {
	if len(directives) != 30 {
		t.Fatalf("%d directives, want 30 (the paper's count)", len(directives))
	}
	seen := map[string]bool{}
	for _, d := range directives {
		if seen[d] {
			t.Errorf("directive %q listed twice", d)
		}
		seen[d] = true
	}
}

func TestResidualConvergence(t *testing.T) {
	s := New(nas.ClassS)
	s.Reset()
	s.EvalResid()
	prev, _ := s.Norms()
	for it := 0; it < 3; it++ {
		s.MG3P()
		s.EvalResid()
		cur, _ := s.Norms()
		if cur >= prev*0.5 {
			t.Fatalf("iteration %d: poor contraction %g → %g", it, prev, cur)
		}
		prev = cur
	}
}

func TestProbe(t *testing.T) {
	s := New(nas.ClassS)
	total := 0
	s.Probe = func(region string, level int, _ time.Duration) {
		total++
		switch region {
		case "resid", "psinv", "rprj3", "interp":
		default:
			t.Errorf("unexpected region %q", region)
		}
	}
	s.Reset()
	s.EvalResid()
	s.MG3P()
	lt := s.lt
	want := 1 + (lt - 1) + lt + (lt - 1) + (lt - 1) // resid+residups, psinvs, rprj3s, interps
	if total != want {
		t.Fatalf("probe count = %d, want %d", total, want)
	}
}

func TestNormsMatchInitialCharge(t *testing.T) {
	s := New(nas.ClassS)
	s.Reset()
	s.EvalResid()
	rnm2, rnmu := s.Norms()
	n := float64(nas.ClassS.N)
	want := math.Sqrt(20.0 / (n * n * n))
	if math.Abs(rnm2-want) > 1e-15 || rnmu != 1 {
		t.Fatalf("initial norms %v/%v, want %v/1", rnm2, rnmu, want)
	}
}

func BenchmarkClassSIteration(b *testing.B) {
	s := New(nas.ClassS)
	s.Reset()
	s.EvalResid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MG3P()
		s.EvalResid()
	}
}
