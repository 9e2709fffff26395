package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// syntheticExchange builds a merged two-rank trace with a known clock
// skew: rank 1's clock runs `skew` nanoseconds ahead of rank 0's, the
// one-way latency is symmetric, and the ranks ping-pong `n` messages
// each way on one tag. Event T stamps are in each rank's local clock,
// exactly as a merged per-rank trace would carry them.
func syntheticExchange(n int, skew, latency, blocked int64) []Event {
	var events []Event
	t0, t1 := int64(1_000_000), int64(1_000_000)+skew
	for seq := 0; seq < n; seq++ {
		// rank 0 sends (instantaneous enqueue), rank 1 receives after the
		// wire latency, blocked for `blocked` ns inside the Recv call.
		t0 += 10_000
		events = append(events, Event{
			T: t0, Ev: "send", Rank: 0, Peer: 1, Tag: 7, Level: 5, Iter: 1 + seq%2,
			Bytes: 512, Seq: uint64(seq), Nanos: 1_000,
		})
		recvEnd := (t0 + skew) + latency + blocked // rank 1 local clock (ahead)
		events = append(events, Event{
			T: recvEnd, Ev: "recv", Rank: 1, Peer: 0, Tag: 7, Level: 5, Iter: 1 + seq%2,
			Bytes: 512, Seq: uint64(seq), Nanos: blocked,
		})
		t1 = recvEnd
		// and the reply, rank 1 → rank 0.
		t1 += 10_000
		events = append(events, Event{
			T: t1, Ev: "send", Rank: 1, Peer: 0, Tag: 7, Level: 5, Iter: 1 + seq%2,
			Bytes: 512, Seq: uint64(seq), Nanos: 1_000,
		})
		replyEnd := (t1 - skew) + latency + blocked // rank 0 local clock
		events = append(events, Event{
			T: replyEnd, Ev: "recv", Rank: 0, Peer: 1, Tag: 7, Level: 5, Iter: 1 + seq%2,
			Bytes: 512, Seq: uint64(seq), Nanos: blocked,
		})
		t0 = replyEnd
	}
	return events
}

func TestPairCommsMatchesAll(t *testing.T) {
	events := syntheticExchange(8, 123_456, 5_000, 2_000)
	pairs, us, ur := PairComms(events)
	if len(us) != 0 || len(ur) != 0 {
		t.Fatalf("unmatched: %d sends, %d recvs", len(us), len(ur))
	}
	if len(pairs) != 16 {
		t.Fatalf("pairs = %d, want 16", len(pairs))
	}
	for _, p := range pairs {
		if p.Bytes != 512 || p.Tag != 7 || p.Level != 5 {
			t.Fatalf("bad pair %+v", p)
		}
	}
}

func TestPairCommsUnmatched(t *testing.T) {
	events := syntheticExchange(4, 0, 5_000, 2_000)
	// Drop one recv: its send must surface as unmatched.
	dropped := events[:0:0]
	removed := false
	for _, e := range events {
		if !removed && e.Ev == "recv" && e.Rank == 1 && e.Seq == 2 {
			removed = true
			continue
		}
		dropped = append(dropped, e)
	}
	pairs, us, ur := PairComms(dropped)
	if len(pairs) != 7 || len(us) != 1 || len(ur) != 0 {
		t.Fatalf("pairs=%d unmatchedSends=%d unmatchedRecvs=%d, want 7/1/0",
			len(pairs), len(us), len(ur))
	}
	if us[0].Seq != 2 || us[0].Rank != 0 {
		t.Fatalf("wrong unmatched send: %+v", us[0])
	}
}

func TestRelativeOffsetRecoversSkewAndIsAntisymmetric(t *testing.T) {
	const skew = 777_000 // rank 1 runs 777µs ahead
	events := syntheticExchange(16, skew, 4_000, 1_500)
	pairs, _, _ := PairComms(events)

	// Convention: global = local + off. Rank 1's clock reads ahead, so
	// mapping it onto rank 0's timeline subtracts the skew: rel(0,1) =
	// off_0 − off_1 = skew.
	rel01, n01 := RelativeOffset(pairs, 0, 1)
	rel10, n10 := RelativeOffset(pairs, 1, 0)
	if n01 == 0 || n10 == 0 {
		t.Fatal("no samples")
	}
	if rel01 != -rel10 {
		t.Fatalf("not antisymmetric: rel(0,1)=%d rel(1,0)=%d", rel01, rel10)
	}
	if rel01 != skew {
		t.Fatalf("rel(0,1) = %d, want %d (symmetric latency cancels exactly)", rel01, skew)
	}

	offs := EstimateOffsets(events)
	if len(offs) != 2 {
		t.Fatalf("offsets for %d ranks, want 2", len(offs))
	}
	if offs[0].Rank != 0 || offs[0].OffsetNanos != 0 {
		t.Fatalf("anchor not rank 0 at offset 0: %+v", offs[0])
	}
	if offs[1].OffsetNanos != -skew {
		t.Fatalf("rank 1 offset = %d, want %d", offs[1].OffsetNanos, -skew)
	}
	if offs[1].Samples != 32 {
		t.Fatalf("rank 1 samples = %d, want 32", offs[1].Samples)
	}
}

func TestEstimateOffsetsHelloFallback(t *testing.T) {
	// Two ranks that never exchanged paired traffic: only the hello
	// anchors align them. Rank 1's hello fires at local T 900k vs rank
	// 0's 400k, so mapping rank 1 onto rank 0 subtracts 500k.
	events := []Event{
		{T: 400_000, Ev: "hello", Rank: 0},
		{T: 900_000, Ev: "hello", Rank: 1},
	}
	offs := EstimateOffsets(events)
	if len(offs) != 2 || offs[1].OffsetNanos != -500_000 || offs[1].Samples != 0 {
		t.Fatalf("hello fallback offsets = %+v", offs)
	}
}

func TestBuildCommReport(t *testing.T) {
	const blocked = 2_000
	events := syntheticExchange(6, 50_000, 5_000, blocked)
	// Add kernel spans and a solve so compute attribution and comm share
	// have something to bite on.
	events = append(events,
		Event{T: 2_000_000, Ev: "span", Kernel: "resid", Level: 5, Rank: 0, Nanos: 300_000},
		Event{T: 2_000_000, Ev: "span", Kernel: "mg3P", Level: 5, Rank: 0, Nanos: 900_000},
		Event{T: 2_100_000, Ev: "span", Kernel: "smooth", Level: 5, Rank: 1, Nanos: 400_000},
		Event{T: 3_000_000, Ev: "solve", Rank: 0, Nanos: 2_500_000},
	)
	rep := BuildCommReport(events)

	if rep.Ranks != 2 || rep.Matched != 12 || rep.UnmatchedSends != 0 || rep.UnmatchedRecvs != 0 {
		t.Fatalf("ranks=%d matched=%d unmatched=%d/%d",
			rep.Ranks, rep.Matched, rep.UnmatchedSends, rep.UnmatchedRecvs)
	}
	if rep.Iterations != 2 {
		t.Fatalf("iterations = %d, want 2", rep.Iterations)
	}
	// Every send took 1µs and every recv `blocked`; 12 of each.
	wantBlocked := int64(12*1_000 + 12*blocked)
	if rep.TotalBlockedNanos != wantBlocked {
		t.Fatalf("total blocked = %d, want %d", rep.TotalBlockedNanos, wantBlocked)
	}
	var levelBlocked, kernel int64
	for _, l := range rep.Levels {
		levelBlocked += l.BlockedNanos
		kernel += l.KernelNanos
	}
	if levelBlocked != wantBlocked {
		t.Fatalf("per-level blocked sums to %d, want %d", levelBlocked, wantBlocked)
	}
	if kernel != 700_000 { // resid + smooth; the mg3P envelope must not double count
		t.Fatalf("kernel nanos = %d, want 700000", kernel)
	}
	if len(rep.Iters) != 2 {
		t.Fatalf("iter stats = %d, want 2", len(rep.Iters))
	}
	for _, it := range rep.Iters {
		if it.Straggler < 0 || it.SkewNanos != it.MaxBlockedNanos-it.MinBlockedNanos {
			t.Fatalf("bad iter stat %+v", it)
		}
	}
	if rep.OverlapEfficiency < 0 || rep.OverlapEfficiency > 1 {
		t.Fatalf("overlap efficiency %g outside [0,1]", rep.OverlapEfficiency)
	}
	if rep.SolveNanos != 2_500_000 || rep.CommShare <= 0 {
		t.Fatalf("solve=%d commShare=%g", rep.SolveNanos, rep.CommShare)
	}

	var buf bytes.Buffer
	rep.WriteText(&buf)
	text := buf.String()
	// The CI distributed job greps for these two phrasings; keep stable.
	if !strings.Contains(text, "unmatched send/recv pairs: 0") {
		t.Fatalf("report text missing unmatched-pairs line:\n%s", text)
	}
	if !strings.Contains(text, "straggler rank") {
		t.Fatalf("report text missing straggler line:\n%s", text)
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report not JSON-encodable: %v", err)
	}
}

func TestReadEventsTolerant(t *testing.T) {
	whole := `{"t":1,"ev":"iter","iter":1}
{"t":2,"ev":"span","kernel":"resid","ns":5}
`
	t.Run("clean", func(t *testing.T) {
		ev, torn, err := ReadEventsTolerant(strings.NewReader(whole))
		if err != nil || torn != 0 || len(ev) != 2 {
			t.Fatalf("ev=%d torn=%d err=%v", len(ev), torn, err)
		}
	})
	t.Run("tornTail", func(t *testing.T) {
		in := whole + `{"t":3,"ev":"sol`
		ev, torn, err := ReadEventsTolerant(strings.NewReader(in))
		if err != nil || torn != 1 || len(ev) != 2 {
			t.Fatalf("ev=%d torn=%d err=%v", len(ev), torn, err)
		}
	})
	t.Run("midFileCorruption", func(t *testing.T) {
		in := `{"t":1,"ev":"iter","iter":1}
{"t":2,"ev":"sp
{"t":3,"ev":"span","kernel":"resid","ns":5}
`
		if _, _, err := ReadEventsTolerant(strings.NewReader(in)); err == nil {
			t.Fatal("valid data after a malformed line must error")
		}
	})
	t.Run("empty", func(t *testing.T) {
		ev, torn, err := ReadEventsTolerant(strings.NewReader(""))
		if err != nil || torn != 0 || len(ev) != 0 {
			t.Fatalf("ev=%d torn=%d err=%v", len(ev), torn, err)
		}
	})
}

func TestChromeTraceAlignedCommTracksAndFlows(t *testing.T) {
	const skew = 250_000
	events := syntheticExchange(4, skew, 5_000, 2_000)
	offs := OffsetMap(EstimateOffsets(events))
	ct := ChromeTraceAligned(events, offs)
	if err := ct.Validate(); err != nil {
		t.Fatalf("aligned trace invalid: %v", err)
	}

	commSpans, starts, finishes := 0, map[string]ChromeEvent{}, map[string]ChromeEvent{}
	for _, e := range ct.TraceEvents {
		switch e.Ph {
		case "X":
			if e.Cat == "comm" {
				commSpans++
				if e.Tid < TidCommBase || e.Tid >= TidWorkerBase {
					t.Fatalf("comm span on tid %d outside comm band", e.Tid)
				}
			}
		case "s":
			starts[e.Id] = e
		case "f":
			if e.Bp != "e" {
				t.Fatalf("flow finish without bp=e: %+v", e)
			}
			finishes[e.Id] = e
		}
	}
	if commSpans != 16 {
		t.Fatalf("comm spans = %d, want 16", commSpans)
	}
	if len(starts) != 8 || len(finishes) != 8 {
		t.Fatalf("flow starts=%d finishes=%d, want 8/8", len(starts), len(finishes))
	}
	for id, s := range starts {
		f, ok := finishes[id]
		if !ok {
			t.Fatalf("flow %s has no finish", id)
		}
		if s.Pid == f.Pid {
			t.Fatalf("flow %s does not cross processes", id)
		}
		if f.Ts < s.Ts {
			t.Fatalf("flow %s finishes (%g) before it starts (%g)", id, f.Ts, s.Ts)
		}
	}

	// With the true offsets applied, aligned recv-ends trail their
	// send-ends by the one-way latency — the timeline is causally
	// ordered even though the raw local stamps were ~250µs apart.
	pairs, _, _ := PairComms(events)
	for _, p := range pairs {
		alignedSend := p.SendEndNs + offs[p.Src]
		alignedRecv := p.RecvEndNs + offs[p.Dst]
		if alignedRecv < alignedSend {
			t.Fatalf("aligned recv %d precedes send %d", alignedRecv, alignedSend)
		}
	}
}

func TestValidateFlowEvents(t *testing.T) {
	bad := ChromeTrace{TraceEvents: []ChromeEvent{
		{Name: "msg", Ph: "s", Ts: 1}, // no id
	}}
	if err := bad.Validate(); err == nil {
		t.Fatal("flow event without id must fail validation")
	}
	bad = ChromeTrace{TraceEvents: []ChromeEvent{
		{Name: "msg", Ph: "f", Id: "x", Bp: "q", Ts: 1},
	}}
	if err := bad.Validate(); err == nil {
		t.Fatal("flow finish with bad bp must fail validation")
	}
	good := ChromeTrace{TraceEvents: []ChromeEvent{
		{Name: "msg", Ph: "s", Id: "x", Ts: 1},
		{Name: "msg", Ph: "f", Id: "x", Bp: "e", Ts: 2},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid flow pair rejected: %v", err)
	}
}
