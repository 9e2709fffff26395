package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// traceStream writes a representative two-rank event stream through real
// tracers and reads it back, exercising the emit→parse round trip.
func traceStream(t *testing.T) []Event {
	t.Helper()
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	emitRank := func(rank int) {
		tr.Emit(Event{Ev: "iter", Iter: 1, Level: 5, Rank: rank})
		tr.Emit(Event{Ev: "level", Level: 4, Dir: "down", Rank: rank})
		tr.Emit(Event{Ev: "span", Kernel: "resid", Level: 5, Nanos: int64(2 * time.Millisecond), Rank: rank})
		tr.Emit(Event{Ev: "span", Kernel: "smooth", Level: 4, Nanos: int64(1 * time.Millisecond), Rank: rank})
		tr.Emit(Event{Ev: "wspan", Worker: 0, Nanos: int64(1500 * time.Microsecond), Rank: rank})
		tr.Emit(Event{Ev: "wspan", Worker: 1, Nanos: int64(500 * time.Microsecond), Rank: rank})
		tr.Emit(Event{Ev: "level", Level: 4, Dir: "up", Rank: rank})
	}
	emitRank(0)
	emitRank(1)
	tr.Emit(Event{Ev: "span", Kernel: "resid", Level: 5, Nanos: int64(1 * time.Millisecond), Rank: 1})
	tr.Emit(Event{Ev: "solve", Level: 5, Nanos: int64(10 * time.Millisecond), Iter: 4, Rnm2: 5.3e-6})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	events, torn, err := ReadEventsTolerant(&buf)
	if err != nil || torn != 0 {
		t.Fatalf("reading the trace: %d torn lines, err %v", torn, err)
	}
	return events
}

// A line that is not JSON at all is a torn tail when nothing valid
// follows it, and corruption when an event does.
func TestReadEventsRejectsGarbage(t *testing.T) {
	events, torn, err := ReadEventsTolerant(strings.NewReader("{\"ev\":\"span\"}\nnot json\n"))
	if err != nil || torn != 1 || len(events) != 1 {
		t.Fatalf("garbage last line: %d events, %d torn, err %v", len(events), torn, err)
	}
	if _, _, err := ReadEventsTolerant(strings.NewReader("not json\n{\"ev\":\"span\"}\n")); err == nil {
		t.Fatal("an event after a garbage line was accepted")
	}
}

func TestSummarize(t *testing.T) {
	sum := Summarize(traceStream(t))
	if sum.Iters != 2 || sum.Solves != 1 {
		t.Fatalf("iters=%d solves=%d, want 2/1", sum.Iters, sum.Solves)
	}
	if sum.SolveNanos != int64(10*time.Millisecond) || sum.FinalRnm2 != 5.3e-6 {
		t.Fatalf("solve rollup wrong: %d ns, rnm2 %g", sum.SolveNanos, sum.FinalRnm2)
	}
	// rank 1 has one extra resid span: 2+1+1 = 4ms; rank 0 has 3ms.
	var r0, r1 int64
	for _, r := range sum.Ranks {
		switch r.Rank {
		case 0:
			r0 = r.SpanNanos
		case 1:
			r1 = r.SpanNanos
		}
	}
	if r0 != int64(3*time.Millisecond) || r1 != int64(4*time.Millisecond) {
		t.Fatalf("rank span totals = %d/%d", r0, r1)
	}
	if sum.CriticalPathNanos != r1 {
		t.Fatalf("critical path = %d, want slowest rank %d", sum.CriticalPathNanos, r1)
	}
	// max/mean = 4 / 3.5.
	if got, want := sum.RankImbalance, 4.0/3.5; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("rank imbalance = %g, want %g", got, want)
	}
	// Per-rank worker busy: worker 0 1.5ms, worker 1 0.5ms on each rank →
	// max/mean = 1.5/1.0.
	if got := sum.WorkerImbalance; got < 1.5-1e-9 || got > 1.5+1e-9 {
		t.Fatalf("worker imbalance = %g, want 1.5", got)
	}
	// Span aggregation: rank 1's resid@5 has two spans totalling 3ms.
	var found bool
	for _, sp := range sum.Spans {
		if sp.Rank == 1 && sp.Kernel == "resid" && sp.Level == 5 {
			found = true
			if sp.Count != 2 || sp.Nanos != int64(3*time.Millisecond) {
				t.Fatalf("resid@5 rank1 = %d spans %d ns", sp.Count, sp.Nanos)
			}
		}
	}
	if !found {
		t.Fatal("rank 1 resid@5 missing from summary")
	}

	var buf bytes.Buffer
	sum.WriteText(&buf)
	for _, want := range []string{"critical path", "rank imbalance", "resid"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("summary text missing %q:\n%s", want, buf.String())
		}
	}
}

func TestChromeTraceSchema(t *testing.T) {
	ct := ChromeTraceAligned(traceStream(t), nil)
	if err := ct.Validate(); err != nil {
		t.Fatalf("converter output invalid: %v", err)
	}

	// The JSON itself must match the trace-event container format:
	// a traceEvents array of objects with name/ph/ts/pid/tid of the
	// right JSON types — checked generically, as a loader would see it.
	raw, err := json.Marshal(ct)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	evs, ok := doc["traceEvents"].([]any)
	if !ok {
		t.Fatalf("traceEvents is %T, want array", doc["traceEvents"])
	}
	if len(evs) == 0 {
		t.Fatal("no trace events")
	}
	phases := map[string]bool{"X": true, "i": true, "C": true, "M": true}
	for i, raw := range evs {
		e, ok := raw.(map[string]any)
		if !ok {
			t.Fatalf("traceEvents[%d] is %T, want object", i, raw)
		}
		if _, ok := e["name"].(string); !ok {
			t.Fatalf("traceEvents[%d] name is %T", i, e["name"])
		}
		ph, ok := e["ph"].(string)
		if !ok || !phases[ph] {
			t.Fatalf("traceEvents[%d] has phase %v", i, e["ph"])
		}
		if _, ok := e["ts"].(float64); !ok {
			t.Fatalf("traceEvents[%d] ts is %T", i, e["ts"])
		}
		for _, key := range []string{"pid", "tid"} {
			v, ok := e[key].(float64)
			if !ok || v != float64(int(v)) {
				t.Fatalf("traceEvents[%d] %s = %v, want integer", i, key, e[key])
			}
		}
		if ph == "X" {
			if d, ok := e["dur"].(float64); ok && d < 0 {
				t.Fatalf("traceEvents[%d] negative dur", i)
			}
		}
	}
}

func TestChromeTraceTracks(t *testing.T) {
	ct := ChromeTraceAligned(traceStream(t), nil)
	// Both ranks must appear as processes, and the three track families
	// (solve, level, worker) must be named.
	type track struct {
		pid, tid int
	}
	names := map[track]string{}
	processes := map[int]bool{}
	for _, e := range ct.TraceEvents {
		if e.Ph != "M" {
			continue
		}
		switch e.Name {
		case "process_name":
			processes[e.Pid] = true
		case "thread_name":
			names[track{e.Pid, e.Tid}] = e.Args["name"].(string)
		}
	}
	if !processes[0] || !processes[1] {
		t.Fatalf("ranks not both named as processes: %v", processes)
	}
	for _, want := range []struct {
		tr   track
		name string
	}{
		{track{0, TidSolve}, "solve"},
		{track{0, TidLevelBase + 5}, "level 5"},
		{track{0, TidWorkerBase + 1}, "worker 1"},
		{track{1, TidLevelBase + 4}, "level 4"},
	} {
		if got := names[want.tr]; got != want.name {
			t.Fatalf("track %v named %q, want %q", want.tr, got, want.name)
		}
	}
	// Region spans land on their level track of their rank's process.
	var spanOK bool
	for _, e := range ct.TraceEvents {
		if e.Ph == "X" && e.Name == "smooth" && e.Pid == 1 && e.Tid == TidLevelBase+4 {
			spanOK = true
		}
	}
	if !spanOK {
		t.Fatal("smooth span not on rank 1's level-4 track")
	}
}

func TestChromeTraceValidateCatchesBadEvents(t *testing.T) {
	bad := []ChromeTrace{
		{TraceEvents: []ChromeEvent{{Name: "", Ph: "X"}}, DisplayTimeUnit: "ms"},
		{TraceEvents: []ChromeEvent{{Name: "x", Ph: "Z"}}, DisplayTimeUnit: "ms"},
		{TraceEvents: []ChromeEvent{{Name: "x", Ph: "X", Dur: -1}}, DisplayTimeUnit: "ms"},
		{TraceEvents: []ChromeEvent{{Name: "x", Ph: "M"}}, DisplayTimeUnit: "ms"},
		{TraceEvents: []ChromeEvent{{Name: "x", Ph: "i", S: "q"}}, DisplayTimeUnit: "ms"},
	}
	for i, ct := range bad {
		if err := ct.Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted bad trace", i)
		}
	}
}
