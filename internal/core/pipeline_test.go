package core

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/array"
	"repro/internal/health"
	"repro/internal/metrics"
	"repro/internal/nas"
	"repro/internal/stencil"
	wl "repro/internal/withloop"
)

// legEnv is an O3 environment whose plane loops fan out at every level:
// with the default sequential threshold the small grids of the leg tests
// would all run inline and never split into worker spans.
func legEnv(workers int, variant string) *wl.Env {
	env := wl.Parallel(workers)
	env.SeqThreshold = 0
	env.Variant = variant
	env.Pool.SetParanoid(true)
	return env
}

// TestPipelinedLegsBitIdentical holds the pipelined V-cycle legs to the
// call sequences they replace, grid for grid and bit for bit, boundary
// included: correct against Coarse2Fine → residSubtract → smoothAdd (or
// smoothAddInto, with MGrid's u), residProject against residSubtract →
// Fine2Coarse. Interior extents 2 and 4 lie below pipeMinPlanes, where the
// legs must be those very calls; from 8 up they are sweeps, split over one
// span per worker down to two planes each.
func TestPipelinedLegsBitIdentical(t *testing.T) {
	for n := 2; n <= 64; n *= 2 {
		zn := randomBox(int64(n), n/2+2, n/2+2, n/2+2)
		r, u, v := randomBox(int64(n+1), n+2, n+2, n+2), randomBox(int64(n+2), n+2, n+2, n+2), randomBox(int64(n+3), n+2, n+2, n+2)

		ref := New(wl.Default())
		ref.Env.Variant = wl.VariantScalar
		z := ref.Coarse2Fine(zn.Clone())
		r2 := ref.residSubtract(r, z)
		wantZ := ref.smoothAdd(z, r2)
		wantU := ref.smoothAddInto(u.Clone(), z, r2)
		wantR := ref.residSubtract(v, u.Clone())
		wantRn := ref.Fine2Coarse(wantR)

		for _, variant := range []string{wl.VariantScalar, wl.VariantBuffered, wl.VariantSIMD} {
			for _, workers := range []int{1, 2, 4} {
				for _, observed := range []bool{false, true} {
					name := fmt.Sprintf("n%d %s w%d observed=%v: ", n, variant, workers, observed)
					env := legEnv(workers, variant)
					col := metrics.NewCollector(workers)
					if observed {
						env.AttachMetrics(col)
					}
					s := New(env)

					got := s.correct(nil, zn.Clone(), r)
					sameBits(t, name+"z'", got, wantZ)
					env.Release(got)

					// u comes from the pool: correct consumes it.
					mine := env.NewArrayDirty(u.Shape())
					copy(mine.Data(), u.Data())
					got = s.correct(mine, zn.Clone(), r)
					sameBits(t, name+"u'", got, wantU)
					env.Release(got)

					gotR, gotRn := s.residProject(v, u.Clone())
					sameBits(t, name+"r", gotR, wantR)
					sameBits(t, name+"rn", gotRn, wantRn)
					env.Release(gotR)
					env.Release(gotRn)

					if st := env.Pool.Stats(); st.Allocs+st.Reuses != st.Puts {
						t.Fatalf("%s%d pool buffers still out after the legs", name, st.Allocs+st.Reuses-st.Puts)
					}
					if observed && n >= pipeMinPlanes {
						rows := map[string]bool{}
						for _, k := range col.Snapshot().Kernels {
							if k.Level == levelOfExtent(n) || k.Kernel == "projectCondense" && k.Level == levelOfExtent(n)-1 {
								rows[k.Kernel] = k.Nanos > 0
							}
						}
						for _, kernel := range []string{"interpolate", "subRelax", "addRelax", "projectCondense", "comm3"} {
							if !rows[kernel] {
								t.Fatalf("%sno time filed under %s: %v", name, kernel, rows)
							}
						}
					}
					env.Close()
				}
			}
		}
	}
}

// bandHeights are the band heights the banded-way-up tests force at N
// interior rows: one-row bands, heights that do not divide N, and N−1, whose
// second band is one row.
func bandHeights(rows int) []int {
	return []int{1, 2, 3, 8, rows - 1}
}

// TestBandedUpBitIdentical holds the way up in bands of rows to its one-band
// sweep, grid for grid and bit for bit, boundary values included: on whole
// grids through correct, with and without MGrid's u, on 1, 2 and 4 workers,
// and on slabs through the sweep CorrectPlanes runs, split into 1, 2 and 4
// spans — in every backend, with bands the rule never picks.
func TestBandedUpBitIdentical(t *testing.T) {
	for rows := pipeMinPlanes; rows <= 64; rows *= 2 {
		n := rows + 2
		if bandRows(n) != rows {
			t.Fatalf("rows of %d run in bands of %d, want one band", n, bandRows(n))
		}
		zn := randomBox(int64(n), n/2+1, n/2+1, n/2+1)
		r, u := randomBox(int64(n+1), n, n, n), randomBox(int64(n+2), n, n, n)
		ref := New(wl.Default())
		want := ref.correct(nil, zn.Clone(), r)
		wantU := ref.correct(u.Clone(), zn.Clone(), r)
		for _, variant := range []string{wl.VariantScalar, wl.VariantBuffered, wl.VariantSIMD} {
			for _, workers := range []int{1, 2, 4} {
				for _, height := range bandHeights(rows) {
					name := fmt.Sprintf("rows %d %s w%d bands of %d: ", rows, variant, workers, height)
					env := legEnv(workers, variant)
					s := New(env)
					s.band = height
					got := s.correct(nil, zn.Clone(), r)
					sameBits(t, name+"z'", got, want)
					env.Release(got)
					mine := env.NewArrayDirty(u.Shape())
					copy(mine.Data(), u.Data())
					got = s.correct(mine, zn.Clone(), r)
					sameBits(t, name+"u'", got, wantU)
					env.Release(got)
					if st := env.Pool.Stats(); st.Allocs+st.Reuses != st.Puts {
						t.Fatalf("%s%d pool buffers still out", name, st.Allocs+st.Reuses-st.Puts)
					}
					env.Close()
				}
			}
			for _, spans := range []int{1, 2, 4} {
				for _, withU := range []bool{false, true} {
					one := slabUp(rows, rows, spans, variant, withU)
					for _, height := range bandHeights(rows) {
						got := slabUp(rows, height, spans, variant, withU)
						for i := range one {
							if math.Float64bits(got[i]) != math.Float64bits(one[i]) {
								t.Fatalf("slab rows %d %s %d spans u=%v bands of %d: element %d = %.17g, one band %.17g",
									rows, variant, spans, withU, height, i, got[i], one[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestBandsInterpolateTheirRows counts, from the layout the way up walks
// (nextBand), the z rows each band interpolates at class A's rows of 258:
// its result rows and the two either side that r₂ and the smoothing reach,
// and one more row at a band that runs into the wrap, whose two runs each
// start on an even row. Every band after the first starts on an even row,
// the rings of the tallest band fit upBudget, and the bands cover every
// row once.
func TestBandsInterpolateTheirRows(t *testing.T) {
	n := nas.ClassA.N + 2
	rows := n - 2
	sw := sweep{n: n, cn: n/2 + 1, band: bandRows(n)}
	next := 1
	for bd := sw.nextBand(0); ; bd = sw.nextBand(bd.b) {
		if bd.a != next || bd.b < bd.a {
			t.Fatalf("band %d … %d, want one starting at row %d", bd.a, bd.b, next)
		}
		if bd.a > 1 && bd.a&1 == 1 {
			t.Errorf("band %d … %d starts on an odd row", bd.a, bd.b)
		}
		if bytes := 8 * 6 * bd.planeRows * n; bytes > upBudget {
			t.Errorf("band %d … %d: rings of %d bytes, budget %d", bd.a, bd.b, bytes, upBudget)
		}
		z := 0
		for _, c := range bd.interp[:bd.ni] {
			z += (c.ring[1] - c.ring[0]) / n
		}
		want := bd.b - bd.a + 5
		if bd.a == 1 || bd.b == rows {
			want++
		}
		if z != want {
			t.Errorf("band %d … %d interpolates %d z rows, want %d", bd.a, bd.b, z, want)
		}
		if next = bd.b + 1; bd.b == rows {
			break
		}
	}
}

// slabUp runs the way up on a slab of rows/2 planes, laterally whole, in
// the layout of CorrectPlanes and the sweep it runs, in bands of height
// rows, the slab split into spans consecutive spans. It returns the result
// grid, every plane of it, halos included.
func slabUp(rows, height, spans int, variant string, withU bool) []float64 {
	n, planes := rows+2, rows/2
	cn := n/2 + 1
	zd := randomBox(1, planes/2+4, cn, cn).Data()
	rd := randomBox(2, planes+2, n, n).Data()
	od := randomBox(3, planes+4, n, n).Data()
	var ud []float64
	if withU {
		ud = od
	}
	sw := sweep{a: stencil.A, sm: stencil.SClassSWA, q: stencil.Q, u: ud, zn: zd, r: rd, out: od, n: n, cn: cn,
		planes: planes, band: height, slab: true}
	sw.top.variant, sw.mid.variant, sw.end.variant = variant, variant, variant
	for i := range spans {
		sw.up(PlaneSpan{Lo: i*planes/spans + 1, Hi: (i + 1) * planes / spans})
	}
	return od
}

// TestSampledClocksFileEveryStage holds the stage clocks' sampling rule
// (observe.go) at its edges: a worker span of 1, 2, clockEvery−1,
// clockEvery or clockEvery+1 planes — one sampled run, a run cut short, a
// span ending just before, on and just after the next run — still laps
// every stage of both legs, so each stage's row gets time, with 1, 2 or 4
// workers filing into one watch. The workers sweep the same span into
// output grids of their own.
func TestSampledClocksFileEveryStage(t *testing.T) {
	// 2·clockEvery+4 fine and clockEvery+2 coarse interior planes: room for
	// clockEvery+1 on either leg, at levels 6 and 5 while clockEvery is 32.
	const n = 2*clockEvery + 6
	cn := n/2 + 1
	zn, r := randomBox(1, cn, cn, cn), randomBox(2, n, n, n)
	u, v := randomBox(3, n, n, n), randomBox(4, n, n, n)
	for _, workers := range []int{1, 2, 4} {
		for _, planes := range []int{1, 2, clockEvery - 1, clockEvery, clockEvery + 1} {
			name := fmt.Sprintf("w%d span of %d planes", workers, planes)
			env := legEnv(workers, "")
			col := metrics.NewCollector(workers)
			env.AttachMetrics(col)
			s, s2 := New(env), New(env) // a solver watches one sweep at a time
			up, down := s.newSweep(n, s.lead(zn, wayUp, 6)), s2.newSweep(n, s2.lead(u, wayDown, 6))
			up.zn, up.r = zn.Data(), r.Data()
			up.top = planPlanes(env, "interpolate", n)
			up.mid = planPlanes(env, "subRelax", n)
			up.end = planPlanes(env, "addRelax", n)
			down.u, down.v = u.Data(), v.Data()
			down.mid, down.end = up.mid, planPlanes(env, "projectCondense", cn)
			var wg sync.WaitGroup
			for range workers {
				mineUp, mineDown := up, down
				mineUp.out = make([]float64, n*n*n)
				mineDown.r, mineDown.rn = make([]float64, n*n*n), make([]float64, cn*cn*cn)
				wg.Add(1)
				go func() {
					defer wg.Done()
					mineUp.span(PlaneSpan{Lo: 1, Hi: planes})
					mineDown.span(PlaneSpan{Lo: 1, Hi: planes})
				}()
			}
			wg.Wait()

			filed := func(leg string, kernels ...string) {
				rows := map[string]bool{}
				for _, k := range col.Snapshot().Kernels {
					rows[fmt.Sprintf("%s@%d", k.Kernel, k.Level)] = k.Nanos > 0
				}
				for _, k := range kernels {
					if !rows[k] {
						t.Errorf("%s, way %s: no time filed under %s: %v", name, leg, k, rows)
					}
				}
				col.Reset()
			}
			up.watch.fileUp(&up)
			filed("up", "interpolate@6", "subRelax@6", "comm3@6", "addRelax@6")
			down.watch.fileDown(&down)
			filed("down", "subRelax@6", "comm3@6", "projectCondense@5")
			env.Close()
		}
	}
}

// The per-iteration residual norms of the official problems, as bits: the
// sum of squares the health monitor sees at the top of every iteration and
// the final rnm2, recorded at the commit before the legs were pipelined.
// The iteration residuals come out of residProject's norm-folding sweep,
// the final one out of a plain solve; both must also be what NPB verifies.
var iterationNormBits = map[byte][]uint64{
	'S': {0x4034000000000000, 0x3fd20ceefff882d4, 0x3f8ac333dbc0d419, 0x3f502e66aec71391, 0x3f0bd3e23d9218e6},
	'W': {0x4034000000000000, 0x3fd19eee03a8bd2e, 0x3f899dfbfe5343bd, 0x3f4ed218389dd940, 0x3f170a1782db014f,
		0x3ee3155adbe5b51b, 0x3eb0bce4f6fdf996, 0x3e7e7c643998deb4, 0x3e4c87e64751b624, 0x3e1b44a61eeea6cb,
		0x3dea80dee179f861, 0x3dba1e83736bea64, 0x3d8a0ac1ecd66bb7, 0x3d5a39a35405ca91, 0x3d2aa3a09460669c,
		0x3cfb443a9511a84e, 0x3ccc1921734a07ba, 0x3c9d21aef8a53c9b, 0x3c6e5e93ea7c334a, 0x3c3fd1a5dcecfdba,
		0x3c10bee12d9805f7, 0x3be1b360f95e7edf, 0x3bb2c8bb6335d887, 0x3b8401d85287bb8b, 0x3b5562262d65a767,
		0x3b26eda885e18cb2, 0x3af8a8fe14645d72, 0x3aca99048e959340, 0x3a9cc773dcd63e7c, 0x3a6f36e77c0cfa7b,
		0x3a410cba2453f320, 0x3a1331dff5398456, 0x39e9bd9def7b07b6, 0x39d0be1fb55f27e7, 0x39c64a8b47efd03b,
		0x39c5eaeec20a3444, 0x39c5cb6d583f691b, 0x39c47d815f923130, 0x39c507183f6c84b3, 0x39c44a8d7936334c,
		0x3c4a706c8180fff5},
	'A': {0x4034000000000000, 0x3fd2d2ce7149ca6f, 0x3f8c7ffa28437359, 0x3f515c7636275a60, 0x3ec4699cb9d973e0},
}

func TestIterationNormsUnchanged(t *testing.T) {
	classes := []nas.Class{nas.ClassS, nas.ClassW, nas.ClassA}
	if testing.Short() {
		classes = classes[:2]
	}
	defer func() { testFaultNorm = nil }()
	for _, class := range classes {
		want := iterationNormBits[class.Name]
		env := wl.Default()
		env.Health = health.New()
		var got []uint64
		testFaultNorm = func(sumSq float64) float64 {
			got = append(got, math.Float64bits(sumSq))
			return sumSq
		}
		b := NewBenchmark(class, env)
		b.Run()
		testFaultNorm = nil
		env.Health = nil
		rnm2, _ := b.Run() // the plain sweeps, on the same warm pool
		got = append(got, math.Float64bits(rnm2))
		if len(got) != len(want) {
			t.Fatalf("class %c: %d norms observed, want %d", class.Name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("class %c norm %d: bits %#x, recorded %#x", class.Name, i, got[i], want[i])
			}
		}
		if verified, ok := class.Verify(rnm2); !ok || !verified {
			t.Errorf("class %c: rnm2 %.13e fails NPB verification", class.Name, rnm2)
		}
	}
}

// After a solve the pool holds nothing but v and u — every ring, spare
// plane and row buffer of the sweeps has gone back — whether the solve ran
// to the end or was abandoned by Cancel between two iterations, on one
// worker or several.
func TestSweepsReturnTheirBuffers(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, cancelAt := range []int{0, 2} {
			env := legEnv(workers, "")
			b := NewBenchmark(nas.ClassS, env)
			if cancelAt > 0 {
				polls := 0
				b.Solver.Cancel = func() bool { polls++; return polls > cancelAt }
			}
			b.Run()
			if live := env.Pool.Stats(); live.Allocs+live.Reuses-live.Puts != 2 {
				t.Errorf("%d workers, cancel at %d: %v after the solve, want v and u live", workers, cancelAt, live)
			}
			env.Close()
		}
	}
}

// A cold class-W solve allocated 12 987 280 pool bytes when every leg
// materialised z, r₂ and a fresh u; with the finest level's three grids
// gone the budget is 0.65 of that.
func TestColdSolvePoolBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("class W skipped in -short")
	}
	env := wl.Default()
	NewBenchmark(nas.ClassW, env).Run()
	const before = 12987280
	if got := env.Pool.Stats().BytesAllocated; got > before*65/100 {
		t.Fatalf("cold class-W solve allocated %d pool bytes, budget %d", got, before*65/100)
	}
}

// The ledger of a pipelined solve reads like the three-call one's: every
// (kernel, level) row records exactly the invocations the V-cycle implies,
// in Invocations and in its duration histogram, and a Probe hears every
// region once per level per iteration. Coverage, a ratio of wall-clock
// times, is the bench ledger's core.coverage row, not a gate here.
func TestPipelinedSolveLedger(t *testing.T) {
	env := wl.Default()
	col := metrics.NewCollector(1)
	env.AttachMetrics(col)
	b := NewBenchmark(nas.ClassS, env)
	b.Run()
	col.Reset()
	regions := map[string]int{}
	b.Solver.Probe = func(region string, level int, _ time.Duration) {
		regions[fmt.Sprintf("%s@%d", region, level)]++
	}
	b.Solve()

	// Per iteration every level but the coarsest projects its residual
	// down (projectCondense, filed at the coarser level it writes) and on
	// the way up interpolates, re-evaluates the residual (subRelax) and
	// smooths (addRelax); the coarsest level only smooths. The finest
	// level adds MGrid's residual on the way down and the closing
	// ResidNorm's. comm3 rows count border exchanges, filed at the
	// exchanged grid's level: the grid a level's way down reads (u at the
	// finest level, once more for ResidNorm), the correction the next
	// finer level interpolates from, and the way up's z and r₂ — which a
	// pipelined level (≥ pipeMinPlanes planes) wraps in its rings and
	// files as one record, as the finest level's way down does for r.
	iters, lt := nas.ClassS.Iter, nas.ClassS.LT()
	want := map[string]int{}
	row := func(kernel string, level, n int) { want[fmt.Sprintf("%s@%d", kernel, level)] = n }
	row(metrics.TotalKernel, lt, 1)
	row("genarray", lt, 1)
	row("comm3", 1, 2*iters)
	for level := 1; level <= lt; level++ {
		row("addRelax", level, iters)
		if level < lt {
			row("projectCondense", level, iters)
		}
		if level == 1 {
			continue
		}
		row("interpolate", level, iters)
		row("subRelax", level, iters)
		if 1<<level >= pipeMinPlanes {
			row("comm3", level, 3*iters)
		} else {
			row("comm3", level, 4*iters)
		}
	}
	row("subRelax", lt, 2*iters+1) // the way down, the way up, and the closing ResidNorm
	row("comm3", lt, 3*iters+1)
	for _, k := range col.Snapshot().Kernels {
		key := fmt.Sprintf("%s@%d", k.Kernel, k.Level)
		if n := uint64(want[key]); k.Invocations != n || k.Hist.Count() != n {
			t.Errorf("%s: %d invocations, %d in its histogram, want %d", key, k.Invocations, k.Hist.Count(), n)
		}
		delete(want, key)
	}
	for key, n := range want {
		t.Errorf("no %s row, want %d invocations", key, n)
	}

	for level := 2; level <= lt; level++ {
		for region, want := range map[string]int{"resid": iters, "smooth": iters, "fine2coarse": iters} {
			if level == lt && region == "resid" {
				want = 2*iters + 1 // the way down, the way up, and the closing ResidNorm
			}
			if got := regions[fmt.Sprintf("%s@%d", region, level)]; got != want {
				t.Errorf("%s probed %d times at level %d, want %d", region, got, level, want)
			}
		}
		if got := regions[fmt.Sprintf("coarse2fine@%d", level-1)]; got != iters {
			t.Errorf("coarse2fine probed %d times at level %d, want %d", got, level-1, iters)
		}
	}
}

// --- the mechanism in isolation ---------------------------------------------------

// legBench times one V-cycle leg at a class's finest level and reports the
// rate at which it moves the streams the three-call sequence's cost model
// counts (KernelCost bytes of its kernels per fine point) — the same
// numerator for both forms, so the two MB/s figures compare directly.
func legBench(b *testing.B, class nas.Class, kernels []string, leg func(s *Solver, v, u, zn, r *array.Array)) {
	env := wl.Default()
	s := New(env)
	s.Smoother = class.SmootherCoeffs()
	n := class.N + 2
	v, u, r := randomBox(1, n, n, n), randomBox(2, n, n, n), randomBox(3, n, n, n)
	zn := randomBox(4, n/2+1, n/2+1, n/2+1)
	var bytes float64
	for _, k := range kernels {
		points := float64(class.N * class.N * class.N)
		if k == "projectCondense" {
			points /= 8
		}
		bytes += points * KernelCost(k, wl.VariantFor(class.LT(), env.Variant)).Bytes
	}
	leg(s, v, u, zn, r) // warm the pool
	b.SetBytes(int64(bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		leg(s, v, u, zn, r)
	}
}

var (
	upKernels   = []string{"interpolate", "subRelax", "addRelax"}
	downKernels = []string{"subRelax", "projectCondense"}
)

func upLegPipelined(s *Solver, _, _, zn, r *array.Array) {
	s.Env.Release(s.correct(nil, zn, r))
}

func upLegSeparate(s *Solver, _, _, zn, r *array.Array) {
	e := s.Env
	z := s.Coarse2Fine(zn)
	r2 := s.residSubtract(r, z)
	e.Release(s.smoothAdd(z, r2))
	e.Release(r2)
	e.Release(z)
}

func downLegPipelined(s *Solver, v, u, _, _ *array.Array) {
	r, rn := s.residProject(v, u)
	s.Env.Release(r)
	s.Env.Release(rn)
}

func downLegSeparate(s *Solver, v, u, _, _ *array.Array) {
	r := s.residSubtract(v, u)
	s.Env.Release(s.Fine2Coarse(r))
	s.Env.Release(r)
}

// BenchmarkObservedSolve times a warm solve plain, with a metrics
// collector attached, and with the collector and a health monitor — what
// mgd attaches to every cold request: the ratios to plain are what the
// ledger and the monitor cost a solve.
func BenchmarkObservedSolve(b *testing.B) {
	for _, class := range []nas.Class{nas.ClassS, nas.ClassW} {
		for _, observers := range []string{"plain", "collector", "mgd"} {
			b.Run(fmt.Sprintf("%c/%s", class.Name, observers), func(b *testing.B) {
				env := wl.Default()
				if observers != "plain" {
					env.AttachMetrics(metrics.NewCollector(1))
				}
				if observers == "mgd" {
					env.Health = health.New()
				}
				bench := NewBenchmark(class, env)
				bench.Run() // warm the pool
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bench.Solve()
				}
			})
		}
	}
}

// BenchmarkUpLegPipelined times the way up at rows of 66 (W's finest
// level), 130 (A's second level, the largest the rule could run as one
// band) and 258 (A's finest).
func BenchmarkUpLegPipelined(b *testing.B) {
	b.Run("W", func(b *testing.B) { legBench(b, nas.ClassW, upKernels, upLegPipelined) })
	b.Run("N128", func(b *testing.B) { legBench(b, nas.Class{Name: 'A', N: 128}, upKernels, upLegPipelined) })
	b.Run("A", func(b *testing.B) { legBench(b, nas.ClassA, upKernels, upLegPipelined) })
}

// BenchmarkUpLegBands times the way up at rows of 130 and 258 in bands of
// 16 rows to one band: the measurements upBudget is chosen from.
func BenchmarkUpLegBands(b *testing.B) {
	for _, rows := range []int{128, 256} {
		for height := 16; height <= rows; height *= 2 {
			b.Run(fmt.Sprintf("N%d/band%d", rows, height), func(b *testing.B) {
				legBench(b, nas.Class{Name: 'A', N: rows}, upKernels, func(s *Solver, v, u, zn, r *array.Array) {
					s.band = height
					upLegPipelined(s, v, u, zn, r)
				})
			})
		}
	}
}

func BenchmarkUpLegSeparate(b *testing.B) {
	b.Run("W", func(b *testing.B) { legBench(b, nas.ClassW, upKernels, upLegSeparate) })
	b.Run("A", func(b *testing.B) { legBench(b, nas.ClassA, upKernels, upLegSeparate) })
}

func BenchmarkDownLegPipelined(b *testing.B) {
	b.Run("W", func(b *testing.B) { legBench(b, nas.ClassW, downKernels, downLegPipelined) })
	b.Run("A", func(b *testing.B) { legBench(b, nas.ClassA, downKernels, downLegPipelined) })
}

func BenchmarkDownLegSeparate(b *testing.B) {
	b.Run("W", func(b *testing.B) { legBench(b, nas.ClassW, downKernels, downLegSeparate) })
	b.Run("A", func(b *testing.B) { legBench(b, nas.ClassA, downKernels, downLegSeparate) })
}
