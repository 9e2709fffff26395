package repro

import (
	"math"
	"testing"

	"repro/internal/nas"
	"repro/sacmg"
)

// sacIterNorms hand-rolls the benchmark iteration on the SAC solver so the
// residual norm is visible after every V-cycle, not only at the end:
// u = 0; per iteration r = v − A·u, u += VCycle(r); norm after each update,
// plus the iteration-0 norm of the initial residual (u = 0). The arithmetic
// is identical to Benchmark.Run — residSubtract, VCycle and Add are the
// exact statements MGrid executes in its unfolded form, and the folded form
// is bit-identical to it (asserted by the core equivalence tests).
func sacIterNorms(t *testing.T, class sacmg.Class, workers int, variant string) []float64 {
	t.Helper()
	env := sacmg.NewParallelEnv(workers)
	env.Variant = variant
	defer env.Close()
	s := sacmg.NewSolver(env)
	s.Smoother = class.SmootherCoeffs()

	v := env.NewArray(class.ExtShape(class.LT()))
	defer env.Release(v)
	nas.Zran3(v, class.N)
	u := sacmg.GenarrayVal(env, v.Shape(), 0.0)
	defer func() { env.Release(u) }()

	norms := make([]float64, 0, class.Iter+1)
	record := func() {
		rnm2, _ := s.ResidNorm(v, u, class.N)
		norms = append(norms, rnm2)
	}
	record() // iteration 0: residual of the zero guess
	for it := 0; it < class.Iter; it++ {
		r := s.Resid(u)
		rv := sacmg.Sub(env, v, r)
		env.Release(r)
		z := s.VCycle(rv)
		env.Release(rv)
		u2 := sacmg.Add(env, u, z)
		env.Release(z)
		env.Release(u)
		u = u2
		record()
	}
	return norms
}

// mpiIterNorms collects the per-iteration norms of the message-passing
// solver via its IterNorms hook (iterations 0..Iter inclusive).
func mpiIterNorms(t *testing.T, class sacmg.Class, ranks, threads int, overlap bool) []float64 {
	t.Helper()
	s := sacmg.NewMPISolver(class, ranks)
	s.Threads = threads
	s.Overlap = overlap
	norms := make([]float64, class.Iter+1)
	seen := make([]bool, class.Iter+1)
	s.IterNorms = func(iter int, rnm2, _ float64) {
		norms[iter] = rnm2
		seen[iter] = true
	}
	s.Run()
	for i, ok := range seen {
		if !ok {
			t.Fatalf("IterNorms never reported iteration %d", i)
		}
	}
	return norms
}

// TestDifferentialIterNorms is the differential sweep: the SMP solver and
// the message-passing solver each produce a per-iteration rnm2 sequence
// that is bit-identical for every worker/rank count (the determinism
// contract of both runtimes), and the two sequences are bit-identical to
// each other. The message-passing ranks run the SMP solver's plane kernels,
// so under a forced backend (MG_FORCE_VARIANT, CI's variants legs) its rows
// are that backend's too.
func TestDifferentialIterNorms(t *testing.T) {
	classes := []sacmg.Class{sacmg.ClassS}
	if !testing.Short() {
		classes = append(classes, sacmg.ClassW)
	}
	for _, class := range classes {
		sacRef := sacIterNorms(t, class, 1, "scalar")
		if len(sacRef) != class.Iter+1 {
			t.Fatalf("class %c: got %d SAC norms, want %d", class.Name, len(sacRef), class.Iter+1)
		}
		for _, workers := range []int{2, 4} {
			got := sacIterNorms(t, class, workers, "scalar")
			for i := range sacRef {
				if got[i] != sacRef[i] {
					t.Fatalf("class %c: SAC %d workers, iter %d: rnm2 = %.17e, 1 worker %.17e",
						class.Name, workers, i, got[i], sacRef[i])
				}
			}
		}

		// Kernel variants: the buffered and simd backends, and the default
		// dispatch ("": no forced variant — the backend rule decides per
		// level), must reproduce the scalar
		// per-iteration norm sequence bit-for-bit (the variant bit-identity
		// contract, here checked through the whole public solver stack
		// rather than core's unit tests).
		for _, variant := range []string{"", "buffered", "simd"} {
			for _, workers := range []int{1, 2, 4} {
				got := sacIterNorms(t, class, workers, variant)
				for i := range sacRef {
					if got[i] != sacRef[i] {
						t.Fatalf("class %c: SAC variant %q %d workers, iter %d: rnm2 = %.17e, scalar %.17e",
							class.Name, variant, workers, i, got[i], sacRef[i])
					}
				}
			}
		}

		mpiRef := mpiIterNorms(t, class, 1, 1, false)
		for _, ranks := range []int{1, 2, 4} {
			for _, threads := range []int{1, 2} {
				for _, overlap := range []bool{false, true} {
					got := mpiIterNorms(t, class, ranks, threads, overlap)
					for i := range mpiRef {
						if got[i] != mpiRef[i] {
							t.Fatalf("class %c: mgmpi %d ranks %d threads overlap=%v, iter %d: rnm2 = %.17e, 1 rank %.17e",
								class.Name, ranks, threads, overlap, i, got[i], mpiRef[i])
						}
					}
				}
			}
		}

		// Cross-backend: the message-passing ranks run the SMP solver's
		// legs on their slabs, so the two sequences are one, bit for bit.
		for i := range sacRef {
			if math.Float64bits(sacRef[i]) != math.Float64bits(mpiRef[i]) {
				t.Fatalf("class %c: iter %d: SAC rnm2 = %.17e vs mgmpi %.17e (not bit-identical)",
					class.Name, i, sacRef[i], mpiRef[i])
			}
		}

		// Both backends' final norms pass the official verification.
		for name, rnm2 := range map[string]float64{"sac": sacRef[class.Iter], "mgmpi": mpiRef[class.Iter]} {
			if verified, ok := class.Verify(rnm2); !ok || !verified {
				t.Fatalf("class %c: %s final rnm2 = %.17e did not verify", class.Name, name, rnm2)
			}
		}
	}
}
