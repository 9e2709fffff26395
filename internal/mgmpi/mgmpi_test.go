package mgmpi

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/f77"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/nas"
)

// f77IterNorms returns the Fortran port's rnm2 after the initial residual
// and after every iteration.
func f77IterNorms(class nas.Class) []float64 {
	ref := f77.New(class)
	ref.Reset()
	ref.EvalResid()
	norms := make([]float64, 0, class.Iter+1)
	for it := 0; ; it++ {
		rnm2, _ := ref.Norms()
		norms = append(norms, rnm2)
		if it == class.Iter {
			return norms
		}
		ref.MG3P()
		ref.EvalResid()
	}
}

// One rank runs mg.f's algorithm in the canonical association of the shared
// kernels, not f77's statements: every iteration's rnm2 agrees with the
// Fortran port to the cross-implementation tolerance of the integration
// test (1e-10 relative; once the residual has converged to the rounding
// floor of r = v − A·u the bound is absolute), and the final norm passes
// the NPB verification.
func TestSingleRankAgreesWithF77(t *testing.T) {
	classes := []nas.Class{nas.ClassS}
	if !testing.Short() {
		classes = append(classes, nas.ClassW)
	}
	for _, class := range classes {
		want := f77IterNorms(class)
		s := New(class, 1)
		var got []float64
		s.IterNorms = func(_ int, rnm2, _ float64) { got = append(got, rnm2) }
		rnm2, _ := s.Run()
		if verified, ok := class.Verify(rnm2); !ok || !verified {
			t.Fatalf("class %c: 1-rank rnm2 = %.13e did not verify", class.Name, rnm2)
		}
		if len(got) != len(want) {
			t.Fatalf("class %c: %d norms reported, want %d", class.Name, len(got), len(want))
		}
		for i := range want {
			diff := math.Abs(got[i] - want[i])
			if diff > 1e-10*want[i] && diff > 1e-15 {
				t.Errorf("class %c iter %d: rnm2 = %.17e, f77 %.17e (rel %.2e)",
					class.Name, i, got[i], want[i], diff/want[i])
			}
		}
		if s.Stats().Messages != 0 {
			t.Fatalf("1-rank run sent %d messages", s.Stats().Messages)
		}
	}
}

// Multi-rank slab runs verify officially and reproduce the 1-rank norms
// bit for bit: every global plane is owned by one rank, so the
// plane-ordered reduction is invariant under the rank count.
func TestMultiRankVerifies(t *testing.T) {
	want, wantU := New(nas.ClassS, 1).Run()
	for _, ranks := range []int{2, 4, 8, 16} {
		s := New(nas.ClassS, ranks)
		got, gotU := s.Run()
		if verified, ok := nas.ClassS.Verify(got); !ok || !verified {
			t.Fatalf("%d ranks: rnm2 = %.13e did not verify", ranks, got)
		}
		if got != want {
			t.Fatalf("%d ranks: rnm2 = %.17e vs 1 rank %.17e", ranks, got, want)
		}
		if gotU != wantU {
			t.Fatalf("%d ranks: rnmu = %.17e vs 1 rank %.17e", ranks, gotU, wantU)
		}
	}
}

func TestMultiRankClassW(t *testing.T) {
	if testing.Short() {
		t.Skip("class W skipped in -short")
	}
	s := New(nas.ClassW, 4)
	rnm2, _ := s.Run()
	if verified, ok := nas.ClassW.Verify(rnm2); !ok || !verified {
		want, _, _ := nas.ClassW.VerifyValue()
		t.Fatalf("4-rank class W rnm2 = %.13e, want %.13e", rnm2, want)
	}
}

// Determinism: repeated runs produce identical results (deterministic
// collectives and FIFO messaging).
func TestRunsDeterministic(t *testing.T) {
	s := New(nas.ClassS, 4)
	a, _ := s.Run()
	b, _ := s.Run()
	if a != b {
		t.Fatalf("two runs differ: %v vs %v", a, b)
	}
}

// closedForm is a solve's communication in closed form, all ranks
// together: messages and payload bytes. A slab (R, 1, 1) exchanges halos
// between core's legs only: per V-cycle two planes either side of the
// finest u (2R messages), and at each lower distributed level one plane
// either side of r and two below and one above of the correction (2R
// messages each), plus the allgather of level lcd−1, R·(R−1) messages.
// Other processor grids run a comm3 — 2·A·R messages over A distributed
// axes — after every kernel: per V-cycle one per distributed restriction
// (lt−lcd), two per distributed level on the way up (resid, smooth), one
// for the residual. Around the iterations come the scatter (R−1), the
// halo refresh of v (and, off a slab, of the first residual) and the
// final norm reduction (2·(R−1)).
func closedForm(class nas.Class, procs [3]int, lcd int) (messages, bytes uint64) {
	lt, g := class.LT(), lcd-1
	R, axes := uint64(procs[0]*procs[1]*procs[2]), uint64(0)
	var local [3]uint64 // interior cells per rank along each axis, at the finest level
	for a, r := range procs {
		local[a] = uint64(class.N / r)
		if r > 1 {
			axes++
		}
	}
	cube := func(l int) uint64 { return uint64(1) << (3 * l) } // interior cells of level l
	perCycle := R * (R - 1)
	cycleBytes := 8 * (R - 1) * cube(g)
	once := 3 * (R - 1)
	onceBytes := 8*(R-1)*cube(lt)/R + 8*(R-1)*(local[0]+1) + 16*(R-1)
	if procs[1] == 1 && procs[2] == 1 {
		plane := func(l int) uint64 { return 8 * uint64((1<<l)+2) * uint64((1<<l)+2) }
		perCycle += 2 * R * uint64(2*(lt-lcd)+1)
		cycleBytes += 2 * R * 2 * plane(lt)
		for l := lcd; l < lt; l++ {
			cycleBytes += 2*R*plane(l) + 3*R*plane(l)
		}
		return uint64(class.Iter)*perCycle + 2*R + once,
			uint64(class.Iter)*cycleBytes + 2*R*plane(lt) + onceBytes
	}
	comm3 := func(l int) uint64 { // payload bytes of one comm3 at level l
		var lp [3]uint64
		for a := range lp {
			lp[a] = local[a] >> (lt - l)
		}
		face := [3]uint64{(lp[1] + 2) * (lp[2] + 2), lp[0] * (lp[2] + 2), lp[0] * lp[1]}
		var b uint64
		for a, r := range procs {
			if r > 1 {
				b += 2 * 8 * R * face[a]
			}
		}
		return b
	}
	perCycle += 2 * axes * R * uint64(3*(lt-lcd+1))
	for l := lcd; l <= lt; l++ {
		cycleBytes += 3 * comm3(l)
	}
	return uint64(class.Iter)*perCycle + 2*2*axes*R + once,
		uint64(class.Iter)*cycleBytes + 2*comm3(lt) + onceBytes
}

// Communication structure: the closed form, message for message and byte
// for byte, on slabs and on a 3-D grid. The ranks' V-cycle traffic is
// identical; rank 0 sends the scatter and the norm broadcast, the others
// one norm partial each.
func TestCommunicationStructure(t *testing.T) {
	for _, c := range []struct {
		class nas.Class
		procs [3]int
		lcd   int // by the rule: one above level 4 (16³), the whole-grid threshold
	}{
		{nas.ClassS, [3]int{2, 1, 1}, 5},
		{nas.ClassS, [3]int{4, 1, 1}, 5},
		{nas.ClassS, [3]int{8, 1, 1}, 5},
		{nas.ClassS, [3]int{2, 2, 2}, 5},
		{nas.ClassW, [3]int{2, 1, 1}, 5},
		{nas.ClassW, [3]int{4, 1, 1}, 5},
	} {
		if c.class.Name == 'W' && testing.Short() {
			continue
		}
		ranks := c.procs[0] * c.procs[1] * c.procs[2]
		st := newRankState(mpi.NewComm(mpi.NewWorld(ranks).Transport(0)), c.class, c.procs)
		if st.lcd != c.lcd {
			t.Errorf("class %c procs %v: coarsest distributed level %d, want %d", c.class.Name, c.procs, st.lcd, c.lcd)
		}
		s := New3D(c.class, c.procs[0], c.procs[1], c.procs[2])
		s.Run()
		messages, bytes := closedForm(c.class, c.procs, c.lcd)
		if got := s.Stats(); got.Messages != messages || got.Bytes != bytes {
			t.Errorf("class %c procs %v: %d messages, %d payload bytes; the closed form says %d, %d",
				c.class.Name, c.procs, got.Messages, got.Bytes, messages, bytes)
		}
		R := uint64(ranks)
		per := s.world.Stats()
		for r := 1; r < ranks; r++ {
			if per[0].Messages != per[r].Messages+2*(R-1)-1 {
				t.Errorf("class %c procs %v: rank 0 sent %d messages, rank %d %d: the V-cycle traffic is not symmetric",
					c.class.Name, c.procs, per[0].Messages, r, per[r].Messages)
			}
		}
	}
}

func TestInvalidRanksPanics(t *testing.T) {
	for _, ranks := range []int{0, 3, 5, nas.ClassS.N} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ranks=%d did not panic", ranks)
				}
			}()
			New(nas.ClassS, ranks)
		}()
	}
}

func BenchmarkClassS4Ranks(b *testing.B) {
	s := New(nas.ClassS, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run()
	}
}

// True 3-D processor grids — boxes whose lateral extents differ, through
// the same shared kernels: every decomposition of the same world size
// verifies officially, repeats its own bits, and matches the 1-rank solve —
// rnmu exactly (every cell's arithmetic is the 1-rank solve's and max has
// no association), rnm2 to the reassociation of the split plane sums.
func Test3DDecompositionsVerify(t *testing.T) {
	want, wantU := New(nas.ClassS, 1).Run()
	grids := [][3]int{
		{2, 2, 1}, {1, 2, 2}, {2, 1, 2}, // 4 ranks, 2-D decompositions
		{2, 2, 2},            // 8 ranks, full 3-D
		{4, 2, 1}, {1, 4, 2}, // mixed extents
		{4, 4, 4}, // 64 ranks
	}
	for _, g := range grids {
		s := New3D(nas.ClassS, g[0], g[1], g[2])
		got, gotU := s.Run()
		if verified, ok := nas.ClassS.Verify(got); !ok || !verified {
			t.Fatalf("grid %v: rnm2 = %.13e did not verify", g, got)
		}
		if rel := math.Abs(got-want) / want; rel > 1e-12 {
			t.Fatalf("grid %v: rnm2 = %.15e vs 1 rank %.15e (rel %.2e)", g, got, want, rel)
		}
		if gotU != wantU {
			t.Fatalf("grid %v: rnmu = %.17e vs 1 rank %.17e", g, gotU, wantU)
		}
		if again, againU := s.Run(); again != got || againU != gotU {
			t.Fatalf("grid %v: second run (%.17e, %.17e) differs from the first (%.17e, %.17e)",
				g, again, againU, got, gotU)
		}
	}
}

// Decomposing different axes of the same world size yields identical
// interior arithmetic: the norms agree across orientations bitwise (the
// kernels sweep the same global cells; only the reduction blocking could
// differ, and for equal rank counts it does not).
func Test3DOrientationConsistency(t *testing.T) {
	a, aU := New3D(nas.ClassS, 4, 1, 1).Run()
	b, bU := New3D(nas.ClassS, 1, 1, 4).Run()
	if aU != bU {
		t.Fatalf("rnmu differs across orientations: %.17e vs %.17e", aU, bU)
	}
	if rel := math.Abs(a-b) / a; rel > 1e-13 {
		t.Fatalf("rnm2 differs across orientations: %.17e vs %.17e", a, b)
	}
}

func Test3DClassW(t *testing.T) {
	if testing.Short() {
		t.Skip("class W skipped in -short")
	}
	s := New3D(nas.ClassW, 2, 2, 2)
	rnm2, _ := s.Run()
	if verified, ok := nas.ClassW.Verify(rnm2); !ok || !verified {
		want, _, _ := nas.ClassW.VerifyValue()
		t.Fatalf("(2,2,2) class W rnm2 = %.13e, want %.13e", rnm2, want)
	}
}

func TestNew3DValidation(t *testing.T) {
	for _, g := range [][3]int{{3, 1, 1}, {0, 1, 1}, {1, 1, nas.ClassS.N}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("grid %v did not panic", g)
				}
			}()
			New3D(nas.ClassS, g[0], g[1], g[2])
		}()
	}
}

// A traced multi-rank run must tag every span with its emitting rank (so
// the Perfetto conversion can split ranks into processes), emit one iter
// marker per V-cycle and a single rank-0 solve event, and still verify.
func TestRankTaggedTrace(t *testing.T) {
	var buf bytes.Buffer
	tr := metrics.NewTracer(&buf)
	s := New(nas.ClassS, 4)
	s.Trace = tr
	rnm2, _ := s.Run()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if verified, ok := nas.ClassS.Verify(rnm2); !ok || !verified {
		t.Fatalf("traced run did not verify: rnm2 = %.13e", rnm2)
	}
	events, err := metrics.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	spanKernels := map[string]bool{
		"resid": true, "mg3P": true, "correct": true,
		"smooth": true, "fine2coarse": true, "coarse2fine": true,
	}
	ranks := map[int]int{}    // phase spans (resid at LT outside kspan + mg3P)
	perLevel := map[int]int{} // per-level kernel spans
	var iters, solves int
	var solveRnm2 float64
	for _, e := range events {
		switch e.Ev {
		case "span":
			if !spanKernels[e.Kernel] {
				t.Fatalf("unexpected span kernel %q", e.Kernel)
			}
			if e.Kernel == "mg3P" || (e.Kernel == "resid" && e.Level == nas.ClassS.LT()) {
				ranks[e.Rank]++
			}
			if e.Kernel != "mg3P" {
				perLevel[e.Level]++
			}
		case "iter":
			iters++
		case "solve":
			solves++
			solveRnm2 = e.Rnm2
			if e.Rank != 0 {
				t.Fatalf("solve event from rank %d, want 0", e.Rank)
			}
		}
	}
	if len(ranks) != 4 {
		t.Fatalf("spans from %d ranks, want 4: %v", len(ranks), ranks)
	}
	// Per rank, phase spans at the finest level: 1 initial resid +
	// Iter × (mg3P + resid); a slab's V-cycle ends at the finest level in
	// a "correct" leg, not a resid kernel.
	want := 1 + 2*nas.ClassS.Iter
	for r, n := range ranks {
		if n != want {
			t.Fatalf("rank %d emitted %d finest-level phase spans, want %d", r, n, want)
		}
	}
	// The per-level kernel spans must cover every level of the hierarchy.
	for l := 1; l <= nas.ClassS.LT(); l++ {
		if perLevel[l] == 0 {
			t.Fatalf("no kernel spans at level %d: %v", l, perLevel)
		}
	}
	if iters != nas.ClassS.Iter || solves != 1 {
		t.Fatalf("iters=%d solves=%d, want %d/1", iters, solves, nas.ClassS.Iter)
	}
	if solveRnm2 != rnm2 {
		t.Fatalf("solve event rnm2 %.17e != returned %.17e", solveRnm2, rnm2)
	}
}

// TestCommEventsMatchStats runs a traced 4-rank channel world and checks
// the send/recv events against the transport's own counters: per rank,
// send events equal Stats().Messages, and globally every send pairs with
// exactly one recv under the (src, dst, tag, seq) key — the invariant
// the distributed observability layer (DESIGN.md §3.5) rests on.
func TestCommEventsMatchStats(t *testing.T) {
	var buf bytes.Buffer
	tr := metrics.NewTracer(&buf)
	s := New(nas.ClassS, 4)
	s.Trace = tr
	rnm2, _ := s.Run()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if verified, ok := nas.ClassS.Verify(rnm2); !ok || !verified {
		t.Fatalf("traced run did not verify: rnm2 = %.13e", rnm2)
	}
	events, err := metrics.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	type pairKey struct {
		src, dst, tag int
		seq           uint64
	}
	sendsByRank := map[int]uint64{}
	recvsByRank := map[int]uint64{}
	sends := map[pairKey]int{}
	recvs := map[pairKey]int{}
	for _, e := range events {
		switch e.Ev {
		case "send":
			sendsByRank[e.Rank]++
			sends[pairKey{e.Rank, e.Peer, e.Tag, e.Seq}]++
			if e.Bytes <= 0 {
				t.Fatalf("send event with %d bytes", e.Bytes)
			}
			if e.Level < 1 || e.Level > nas.ClassS.LT() {
				t.Fatalf("send event at implausible level %d", e.Level)
			}
		case "recv":
			recvsByRank[e.Rank]++
			recvs[pairKey{e.Peer, e.Rank, e.Tag, e.Seq}]++
		}
	}
	for rank, st := range s.world.Stats() {
		if sendsByRank[rank] != st.Messages {
			t.Errorf("rank %d: %d send events != %d messages sent", rank, sendsByRank[rank], st.Messages)
		}
	}
	if len(sends) == 0 {
		t.Fatal("no send events in a 4-rank traced run")
	}
	for k, n := range sends {
		if n != 1 {
			t.Errorf("send key %+v seen %d times, want 1 (seq not unique)", k, n)
		}
		if recvs[k] != 1 {
			t.Errorf("send %+v matched by %d recvs, want 1", k, recvs[k])
		}
	}
	for k := range recvs {
		if sends[k] != 1 {
			t.Errorf("recv %+v has no matching send", k)
		}
	}
}

// TestTracedRunBitIdentical pins the acceptance requirement that
// observability never perturbs the arithmetic: per-iteration rnm2 with a
// tracer attached is bit-identical to the untraced run.
func TestTracedRunBitIdentical(t *testing.T) {
	collect := func(trace bool) []uint64 {
		s := New(nas.ClassS, 4)
		var tr *metrics.Tracer
		if trace {
			var buf bytes.Buffer
			tr = metrics.NewTracer(&buf)
			s.Trace = tr
		}
		var norms []uint64
		s.IterNorms = func(iter int, rnm2, rnmu float64) {
			norms = append(norms, math.Float64bits(rnm2))
		}
		rnm2, _ := s.Run()
		norms = append(norms, math.Float64bits(rnm2))
		if tr != nil {
			tr.Close()
		}
		return norms
	}
	plain := collect(false)
	traced := collect(true)
	if len(plain) != len(traced) {
		t.Fatalf("norm count mismatch: %d vs %d", len(plain), len(traced))
	}
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("iter %d: traced rnm2 bits %016x != untraced %016x", i, traced[i], plain[i])
		}
	}
}

// TestDisabledObservabilityZeroAlloc pins the other half of the
// acceptance criterion: with no tracer the span/level helpers are inert
// — no observer, no closures reaching the heap, zero allocations.
func TestDisabledObservabilityZeroAlloc(t *testing.T) {
	st := &rankState{}
	sink := 0
	allocs := testing.AllocsPerRun(1000, func() {
		st.setCommLevel(5)
		st.kspan("resid", 5, func() { sink++ })
	})
	if allocs != 0 {
		t.Fatalf("disabled observability path allocates %.1f per op, want 0", allocs)
	}
}

func BenchmarkDisabledObservability(b *testing.B) {
	st := &rankState{}
	sink := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.setCommLevel(5)
		st.kspan("resid", 5, func() { sink++ })
	}
	_ = sink
}
