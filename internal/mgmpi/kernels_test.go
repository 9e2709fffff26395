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
	"repro/internal/sched"
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

// The ranks' backend is the shared rule: forced by MG_FORCE_VARIANT (what
// CI's variants legs set, so they run mgmpi through each backend), the
// default dispatch of the finest rows otherwise, which a slab leaves whole.
func TestVariantFollowsSharedRule(t *testing.T) {
	s := New(nas.ClassS, 4)
	want := wl.DefaultVariant(nas.ClassS.LT()) // rows of 2⁵ points
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
		if st.Allocs+st.Reuses != st.Puts {
			t.Fatalf("overlap=%v: %d buffers outstanding after the aborted solve (%v)", overlap, st.Allocs+st.Reuses-st.Puts, st)
		}
		if st.Puts == 0 && s.Variant() != wl.VariantScalar { // scalar needs no line buffers
			t.Fatalf("overlap=%v: the %s kernels never used the pool", overlap, s.Variant())
		}
	}
}

// TestSlabLegsBitIdentical holds a slab's legs and the exchanges between
// them to core's three-call V-cycle on the whole grid, plane for plane and
// halos included: from random u, v and coarse solution, each rank's way
// down (r and its projection), its way up at every distributed level and
// the halo planes the exchanges leave must be the whole grid's planes the
// rank's slab covers, periodically wrapped — for 1, 2 and 4 ranks, inline
// and over two workers, synchronous and overlapped. Class S has one
// distributed level, class W two (the lower one's r and correction
// exchanged too).
func TestSlabLegsBitIdentical(t *testing.T) {
	classes := []nas.Class{nas.ClassS}
	if !testing.Short() {
		classes = append(classes, nas.ClassW)
	}
	env := wl.Default()
	ref := core.New(env)
	periodic := func(a *array.Array) *array.Array { nas.Comm3(a); return a }
	for _, class := range classes {
		ref.Smoother = class.SmootherCoeffs()
		probe := newRankState(rankComm(1, 0), class)
		lt, lcd := probe.lt, probe.lcd
		whole := func(seed int64, l int) *array.Array { return randomBox(seed, array.New(class.ExtShape(l))) }
		u, v, zn := whole(1, lt), whole(2, lt), whole(3, lcd-1)
		// up is the way up at one level: z + S·(r − A·z), z = Q·zn, plus u.
		up := func(u, zn, r *array.Array) *array.Array {
			z := ref.Coarse2Fine(zn)
			out := aplib.Add(env, z, ref.Smooth(aplib.Sub(env, r, ref.Resid(z))))
			if u != nil {
				out = aplib.Add(env, u, out)
			}
			return periodic(out)
		}
		want := map[string]*array.Array{}
		want["r"] = periodic(aplib.Sub(env, v, ref.Resid(u)))
		want["rn"] = periodic(ref.Fine2Coarse(want["r"]))
		if lt-1 >= lcd {
			want["correction"] = up(nil, zn, want["rn"])
			zn = want["correction"]
		}
		want["u"] = up(u, zn, want["r"])

		for _, ranks := range []int{1, 2, 4} {
			for _, threads := range []int{1, 2} {
				for _, overlap := range []bool{false, true} {
					name := fmt.Sprintf("class %c ranks=%d threads=%d overlap=%v", class.Name, ranks, threads, overlap)
					mpi.NewWorld(ranks).Run(func(c *mpi.Comm) {
						st := newRankState(c, class)
						st.mem, st.overlap, st.another = mempool.New(true), overlap, true
						if threads > 1 {
							st.pool = sched.NewPool(threads)
							defer st.pool.Close()
						}
						// check compares logical planes lo … hi of a slab box at
						// level l with the whole grid's planes they stand for.
						check := func(what string, a *array.Array, l, lo, hi int, w *array.Array) {
							lp, pl := st.local(l), w.Shape()[1]*w.Shape()[2]
							for q := lo; q <= hi; q++ {
								g := (c.Rank()*lp+q-1+(1<<l))%(1<<l) + 1
								got, exp := st.slabPlanes(a, l, q, q), w.Data()[g*pl:(g+1)*pl]
								for i := range exp {
									if math.Float64bits(got[i]) != math.Float64bits(exp[i]) {
										t.Errorf("%s rank %d: %s plane %d value %d = %.17g, core's %.17g",
											name, c.Rank(), what, q, i, got[i], exp[i])
										return
									}
								}
							}
						}
						fill := func(a *array.Array, l, lo, hi int, w *array.Array) {
							lp, pl := st.local(l), w.Shape()[1]*w.Shape()[2]
							for q := lo; q <= hi; q++ {
								g := (c.Rank()*lp+q-1+(1<<l))%(1<<l) + 1
								copy(st.slabPlanes(a, l, q, q), w.Data()[g*pl:(g+1)*pl])
							}
						}
						lp := st.local(lt)
						fill(st.u[lt], lt, 1, lp, u)
						fill(st.v, lt, 1, lp, v)
						for _, x := range []struct {
							a *array.Array
							h halo
						}{{st.u[lt], halo{2, 2}}, {st.v, halo{1, 1}}} {
							st.sendFaces(x.a, lt, x.h)
							st.recvFaces(x.a, lt, x.h)
						}
						st.window(whole(3, lcd-1))

						st.evalResid()
						check("r", st.r[lt], lt, 0, lp+1, want["r"])
						if lt-1 >= lcd {
							check("rn", st.r[lt-1], lt-1, 0, st.local(lt-1)+1, want["rn"])
							st.correct(lt - 1)
							check("correction", st.u[lt-1], lt-1, -1, st.local(lt-1)+1, want["correction"])
						} else {
							check("rn", st.r[lt-1], lt-1, 1, st.local(lt-1), want["rn"])
						}
						st.correct(lt)
						check("u", st.u[lt], lt, -1, lp+2, want["u"])
					})
				}
			}
		}
	}
}
