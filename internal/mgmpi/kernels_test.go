package mgmpi

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/aplib"
	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/mempool"
	"repro/internal/mpi"
	"repro/internal/nas"
	wl "repro/internal/withloop"
)

// randomBox returns a box shaped like its argument with reproducible non-zero values
// and a current periodic halo.
func randomBox(seed int64, like *array.Array) *array.Array {
	a := array.New(like.Shape())
	rng := rand.New(rand.NewSource(seed))
	for i := range a.Data() {
		a.Data()[i] = rng.Float64() - 0.5
	}
	nas.Comm3(a)
	return a
}

// sameBits fails unless got and want agree in every bit, halos included.
func sameBits(t *testing.T, what string, got, want *array.Array) {
	t.Helper()
	if !got.Shape().Equal(want.Shape()) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i, w := range want.Data() {
		if g := got.Data()[i]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: element %d = %.17g, want %.17g", what, i, g, w)
		}
	}
}

// The anchor of the correctness web: on one rank a box is the full extended
// grid, and each of the four operators must leave in it, bit for bit and
// halos included, what core.Solver's operator of the same name computes on
// that grid followed by the periodic border update — on a level whose rows
// vectorise under the default dispatch and on one whose rows do not.
func TestOperatorsEqualCoreKernels(t *testing.T) {
	class := nas.ClassS
	st := newRankState(mpi.NewComm(mpi.NewWorld(1).Transport(0)), class, [3]int{1, 1, 1})
	st.mem = mempool.New(true)
	env := wl.Default()
	ref := core.New(env)
	ref.Smoother = class.SmootherCoeffs()
	periodic := func(a *array.Array) *array.Array { nas.Comm3(a); return a }

	box := func(l int) *array.Array { return array.New(st.boxShape(l)) }
	for _, l := range []int{st.lt, 2} {
		name := func(op string) string { return fmt.Sprintf("level %d %s", l, op) }
		u, v := randomBox(1, box(l)), randomBox(2, box(l))

		r := randomBox(3, u)
		st.resid(u, v, r)
		sameBits(t, name("resid"), r, periodic(aplib.Sub(env, v, ref.Resid(u))))

		r = v.Clone() // the in-place form below the finest level: r = r − A·u
		st.resid(u, r, r)
		sameBits(t, name("resid in place"), r, periodic(aplib.Sub(env, v, ref.Resid(u))))

		want := periodic(aplib.Add(env, u, ref.Smooth(r)))
		st.psinv(r, u)
		sameBits(t, name("psinv"), u, want)

		coarse := randomBox(4, box(l-1))
		st.rprj3(r, coarse)
		sameBits(t, name("rprj3"), coarse, periodic(ref.Fine2Coarse(r)))

		q := ref.Coarse2Fine(coarse)
		want = periodic(aplib.Add(env, u, q))
		st.interp(coarse, u, true)
		sameBits(t, name("interp accumulating"), u, want)
		st.interp(coarse, u, false)
		sameBits(t, name("interp"), u, periodic(q))
	}
}

// The ranks' backend is the shared rule: forced by MG_FORCE_VARIANT (what
// CI's variants legs set, so they run mgmpi through each backend), the
// default dispatch of the finest rows otherwise.
func TestVariantFollowsSharedRule(t *testing.T) {
	s := New3D(nas.ClassS, 1, 1, 4)
	want := wl.DefaultVariant(3) // class S split four ways along the rows: 32/4 = 2³ points
	if forced := os.Getenv("MG_FORCE_VARIANT"); forced != "" {
		want = forced
	}
	if got := s.Variant(); got != want {
		t.Fatalf("Variant() = %q, want %q", got, want)
	}
}

// TestWarmSolveAllocs pins the Go-heap traffic of a warm 1-rank class-S
// solve. The plane kernels take their line buffers from the solver's pool,
// so what is left is the per-run rank state and one closure per operator
// call: 159 objects when this was written, against 321 when every operator
// call allocated its own scratch rows.
func TestWarmSolveAllocs(t *testing.T) {
	const budget = 200
	s := New(nas.ClassS, 1)
	s.Run() // warm the pool
	if got := testing.AllocsPerRun(5, func() { s.Run() }); got > budget {
		t.Errorf("warm solve allocates %.0f objects, budget %d", got, budget)
	}
}

// A solve cut short — one rank dies after an iteration, the survivors'
// exchanges fail wherever in the V-cycle they were blocked — leaves every
// line buffer back in the pool and no goroutine behind, under both exchange
// modes and with the plane loops fanned over workers.
func TestPoolBalancedAfterDeadRank(t *testing.T) {
	base := runtime.NumGoroutine()
	defer func() {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%d goroutines outlived the aborted solves", n-base)
		}
	}()
	for _, overlap := range []bool{false, true} {
		s := New(nas.ClassS, 4)
		s.Overlap = overlap
		s.Threads = 2
		s.mem.SetParanoid(true)
		s.OnIter = func(rank, iter int) {
			if rank == 2 && iter == 2 {
				panic("rank 2 dies")
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("overlap=%v: the dead rank did not surface", overlap)
				}
			}()
			s.Run()
		}()
		st := s.mem.Stats()
		if live := s.mem.Live(); live != 0 || st.Allocs+st.Reuses != st.Puts {
			t.Fatalf("overlap=%v: %d buffers outstanding after the aborted solve (%v)", overlap, live, st)
		}
		if st.Puts == 0 && s.Variant() != wl.VariantScalar { // scalar needs no line buffers
			t.Fatalf("overlap=%v: the %s kernels never used the pool", overlap, s.Variant())
		}
	}
}
