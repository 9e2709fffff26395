package mgmpi

import (
	"bytes"
	"fmt"
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
// together: messages and payload bytes. The slabs exchange halos between
// core's legs only: per V-cycle two planes either side of the finest u (2R
// messages), and at each lower distributed level one plane either side of
// r and two below and one above of the correction (2R messages each), plus
// the allgather of level lcd−1, R·(R−1) messages. Around the iterations
// come zran3's candidate exchange (R·(R−1) messages of 40 values) and the
// final norm reduction (2·(R−1)).
func closedForm(class nas.Class, ranks, lcd int) (messages, bytes uint64) {
	lt, g, R := class.LT(), lcd-1, uint64(ranks)
	plane := func(l int) uint64 { return 8 * uint64((1<<l)+2) * uint64((1<<l)+2) }
	perCycle := R*(R-1) + 2*R*uint64(2*(lt-lcd)+1)
	cycleBytes := 8*(R-1)*(uint64(1)<<(3*g)) + 2*R*2*plane(lt)
	for l := lcd; l < lt; l++ {
		cycleBytes += 2*R*plane(l) + 3*R*plane(l)
	}
	once := R*(R-1) + 2*(R-1)
	onceBytes := 8*40*R*(R-1) + 8*(R-1)*(uint64(class.N/ranks)+1) + 16*(R-1)
	return uint64(class.Iter)*perCycle + once, uint64(class.Iter)*cycleBytes + onceBytes
}

// Communication structure: the closed form, message for message and byte
// for byte, up to the largest slab class S admits (16 ranks). The ranks'
// V-cycle traffic and their candidate messages are identical; rank 0 sends
// the norm broadcast, the others one norm partial each.
func TestCommunicationStructure(t *testing.T) {
	for _, c := range []struct {
		class nas.Class
		ranks int
		lcd   int // by the rule: one above level 4 (16³), the whole-grid threshold
	}{
		{nas.ClassS, 2, 5},
		{nas.ClassS, 4, 5},
		{nas.ClassS, 8, 5},
		{nas.ClassS, 16, 5},
		{nas.ClassW, 2, 5},
		{nas.ClassW, 4, 5},
	} {
		if c.class.Name == 'W' && testing.Short() {
			continue
		}
		st := newRankState(mpi.NewComm(mpi.NewWorld(c.ranks).Transport(0)), c.class)
		if st.lcd != c.lcd {
			t.Errorf("class %c ranks %d: coarsest distributed level %d, want %d", c.class.Name, c.ranks, st.lcd, c.lcd)
		}
		s := New(c.class, c.ranks)
		s.Run()
		messages, bytes := closedForm(c.class, c.ranks, c.lcd)
		if got := s.Stats(); got.Messages != messages || got.Bytes != bytes {
			t.Errorf("class %c ranks %d: %d messages, %d payload bytes; the closed form says %d, %d",
				c.class.Name, c.ranks, got.Messages, got.Bytes, messages, bytes)
		}
		R := uint64(c.ranks)
		per := s.world.Stats()
		for r := 1; r < c.ranks; r++ {
			if per[0].Messages != per[r].Messages+(R-1)-1 {
				t.Errorf("class %c ranks %d: rank 0 sent %d messages, rank %d %d: the V-cycle traffic is not symmetric",
					c.class.Name, c.ranks, per[0].Messages, r, per[r].Messages)
			}
		}
	}
}

// New rejects a rank count that is not a power of two or leaves a rank
// fewer than two planes (2R > N), naming the bound and the count, and
// accepts the largest slab class S admits.
func TestInvalidRanksPanics(t *testing.T) {
	for _, ranks := range []int{0, 3, 5, nas.ClassS.N} {
		func() {
			defer func() {
				want := fmt.Sprintf("mgmpi: the rank count must be a power of two with 2*ranks <= 32, got %d", ranks)
				if p := recover(); fmt.Sprint(p) != want {
					t.Errorf("ranks=%d: panic %v, want %q", ranks, p, want)
				}
			}()
			New(nas.ClassS, ranks)
		}()
	}
	if s := New(nas.ClassS, 16); s.Ranks() != 16 {
		t.Errorf("New(ClassS, 16) has %d ranks", s.Ranks())
	}
}

// ValidateProcs, the rule New, NewWithTransport and the command-line
// front ends share, follows the class: every power of two up to N/2 is a
// slab decomposition, and zero, negative, non-power-of-two and
// fewer-than-two-planes counts are refused with the class's bound named.
// NewWithTransport returns the same error rather than panicking.
func TestValidateProcs(t *testing.T) {
	for _, class := range []nas.Class{nas.ClassS, nas.ClassW, nas.ClassA} {
		for ranks := 1; 2*ranks <= class.N; ranks *= 2 {
			if err := ValidateProcs(class, ranks); err != nil {
				t.Errorf("class %c ranks=%d: %v", class.Name, ranks, err)
			}
		}
		for _, ranks := range []int{-2, 0, 3, 6, class.N/2 + 1, class.N, 2 * class.N} {
			want := fmt.Sprintf("mgmpi: the rank count must be a power of two with 2*ranks <= %d, got %d", class.N, ranks)
			if err := ValidateProcs(class, ranks); err == nil || err.Error() != want {
				t.Errorf("class %c ranks=%d: error %v, want %q", class.Name, ranks, err, want)
			}
		}
	}
	s, err := NewWithTransport(nas.ClassS, mpi.NewWorld(3).Transport(0))
	if want := ValidateProcs(nas.ClassS, 3); s != nil || err == nil || err.Error() != want.Error() {
		t.Errorf("NewWithTransport over 3 ranks: (%v, %v), want (nil, %v)", s, err, want)
	}
}

func BenchmarkClassS4Ranks(b *testing.B) {
	s := New(nas.ClassS, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run()
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
	events, torn, err := metrics.ReadEventsTolerant(&buf)
	if err != nil || torn != 0 {
		t.Fatalf("reading the trace: %d torn lines, err %v", torn, err)
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
// the distributed observability layer (DESIGN.md §3.5) rests on. The
// set-up is zran3's candidate exchange alone: R·(R−1) sends of 320 B
// before the first iteration.
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
	events, torn, err := metrics.ReadEventsTolerant(&buf)
	if err != nil || torn != 0 {
		t.Fatalf("reading the trace: %d torn lines, err %v", torn, err)
	}
	type pairKey struct {
		src, dst, tag int
		seq           uint64
	}
	sendsByRank := map[int]uint64{}
	recvsByRank := map[int]uint64{}
	sends := map[pairKey]int{}
	recvs := map[pairKey]int{}
	var charges int
	for _, e := range events {
		switch e.Ev {
		case "send":
			if e.Tag == tagCharges {
				charges++
				if e.Bytes != 320 || e.Iter != 0 {
					t.Errorf("charge message %+v: want 320 bytes before the first iteration", e)
				}
			}
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
	if charges != 4*3 {
		t.Errorf("%d charge messages, want R·(R−1) = 12", charges)
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
