package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecordAndSnapshot(t *testing.T) {
	c := NewCollector(4)
	c.Record(0, "subRelax", 5, 1000, 2*time.Microsecond)
	c.Record(1, "subRelax", 5, 1000, 3*time.Microsecond)
	c.Record(0, "subRelax", 4, 125, time.Microsecond)
	c.Record(2, "interpolate", 5, 8000, 4*time.Microsecond)

	snap := c.Snapshot()
	if len(snap.Kernels) != 3 {
		t.Fatalf("got %d merged kernels, want 3: %+v", len(snap.Kernels), snap.Kernels)
	}
	// Sorted by kernel then level: interpolate@5, subRelax@4, subRelax@5.
	if snap.Kernels[0].Kernel != "interpolate" || snap.Kernels[1].Level != 4 {
		t.Fatalf("unexpected order: %+v", snap.Kernels)
	}
	sr := snap.Kernels[2]
	if sr.Invocations != 2 || sr.Points != 2000 || sr.Nanos != 5000 {
		t.Fatalf("subRelax@5 merged wrong: %+v", sr)
	}
}

func TestRecordConcurrent(t *testing.T) {
	const workers, perWorker = 8, 1000
	c := NewCollector(workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Record(w, "k", 3, 10, time.Nanosecond)
				c.RecordBusy(w, time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	snap := c.Snapshot()
	if len(snap.Kernels) != 1 || snap.Kernels[0].Invocations != workers*perWorker {
		t.Fatalf("lost records: %+v", snap.Kernels)
	}
	if len(snap.Workers) != workers {
		t.Fatalf("got %d worker rows, want %d", len(snap.Workers), workers)
	}
	for _, ws := range snap.Workers {
		if ws.Loops != perWorker {
			t.Fatalf("worker %d: %d loops, want %d", ws.Worker, ws.Loops, perWorker)
		}
	}
}

func TestDerivedRates(t *testing.T) {
	k := KernelStat{Points: 1e9, Nanos: 1e9} // 1 Gpoint in 1 s
	if got := k.gflops(24); got != 24 {
		t.Fatalf("GFLOPS = %v, want 24", got)
	}
	if got := k.gbPerSec(24); got != 24 {
		t.Fatalf("GB/s = %v, want 24", got)
	}
	var zero KernelStat
	if zero.gflops(24) != 0 || zero.gbPerSec(24) != 0 {
		t.Fatal("zero-time stats must not divide by zero")
	}
}

func TestCoverage(t *testing.T) {
	c := NewCollector(1)
	if _, ok := c.Snapshot().Coverage(); ok {
		t.Fatal("coverage without a solve span should be not-ok")
	}
	c.Record(0, TotalKernel, 5, 100, 100*time.Millisecond)
	c.Record(0, "subRelax", 5, 100, 90*time.Millisecond)
	frac, ok := c.Snapshot().Coverage()
	if !ok || frac < 0.89 || frac > 0.91 {
		t.Fatalf("coverage = %v ok=%v, want ~0.9", frac, ok)
	}
}

// RecordVariant stamps the row with the dispatched backend; the latest
// non-empty variant wins (mid-calibration the backends alternate), and
// the cost model sees it when deriving throughput.
func TestRecordVariant(t *testing.T) {
	c := NewCollector(2)
	c.RecordVariant(0, "subRelax", 5, "scalar", 100, time.Millisecond)
	c.RecordVariant(0, "subRelax", 5, "buffered", 100, time.Millisecond)
	c.Record(0, "comm3", 5, 100, time.Millisecond)
	snap := c.Snapshot()
	byKernel := map[string]KernelStat{}
	for _, k := range snap.Kernels {
		byKernel[k.Kernel] = k
	}
	if got := byKernel["subRelax"].Variant; got != "buffered" {
		t.Fatalf("subRelax variant = %q, want latest %q", got, "buffered")
	}
	if got := byKernel["comm3"].Variant; got != "" {
		t.Fatalf("comm3 variant = %q, want empty (plain Record)", got)
	}
	var seen []string
	var buf bytes.Buffer
	snap.WriteReport(&buf, func(kernel, variant string) Cost {
		seen = append(seen, kernel+"/"+variant)
		return Cost{}
	})
	want := "subRelax/buffered"
	ok := false
	for _, s := range seen {
		ok = ok || s == want
	}
	if !ok {
		t.Fatalf("cost model never saw %q; calls: %v", want, seen)
	}
}

func TestResetAndWriteReport(t *testing.T) {
	c := NewCollector(2)
	c.Record(0, "subRelax", 5, 100, time.Millisecond)
	c.Record(0, TotalKernel, 5, 100, 2*time.Millisecond)
	var buf bytes.Buffer
	c.Snapshot().WriteReport(&buf, costMap(map[string]Cost{"subRelax": {Flops: 24, Bytes: 24}}))
	out := buf.String()
	for _, want := range []string{"subRelax", "kernel coverage", "GFLOP/s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	c.Reset()
	if snap := c.Snapshot(); len(snap.Kernels) != 0 || len(snap.Workers) != 0 {
		t.Fatalf("reset left data: %+v", snap)
	}
}

func TestSnapshotMarshalsToJSON(t *testing.T) {
	c := NewCollector(1)
	c.Record(0, "subRelax", 5, 100, time.Millisecond)
	c.RecordBusy(0, time.Millisecond)
	b, err := json.Marshal(c.Snapshot())
	if err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
	if !strings.Contains(string(b), `"kernel":"subRelax"`) {
		t.Fatalf("unexpected JSON: %s", b)
	}
}

func TestTracerJSONLines(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.Emit(Event{Ev: "level", Level: 5, Dir: "down"})
	tr.Emit(Event{Ev: "span", Kernel: "resid", Level: 5, Nanos: 1234})
	tr.Emit(Event{Ev: "solve", Nanos: 5678, Rnm2: 0.5e-4})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 3:\n%s", len(lines), buf.String())
	}
	for _, line := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %q is not valid JSON: %v", line, err)
		}
		if ev.Ev == "" {
			t.Fatalf("line %q has no event kind", line)
		}
	}
}

// TestMetricsDisabledZeroAlloc pins the disabled fast path: a nil
// collector and a nil tracer must record and emit for free — 0 bytes per
// operation (the acceptance criterion of the observability layer). The
// nil contract propagates through ForJob, so a daemon without -trace
// pays the same zero on every per-job view.
func TestMetricsDisabledZeroAlloc(t *testing.T) {
	var c *Collector
	var tr *Tracer
	view := tr.ForJob("00112233445566778899aabbccddeeff", "deadbeef")
	if view != nil {
		t.Fatal("ForJob on a nil tracer must return nil")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		c.Record(0, "subRelax", 5, 1000, time.Microsecond)
		c.RecordBusy(0, time.Microsecond)
		tr.Emit(Event{Ev: "span", Kernel: "resid", Level: 5, Nanos: 1000})
		view.Emit(Event{Ev: "stage", Stage: "queue", Nanos: 1000})
	})
	if allocs != 0 {
		t.Fatalf("disabled metrics path allocates %v bytes/op, want 0", allocs)
	}
}

// TestTracerForJobTagging pins the per-job view semantics: a view stamps
// its trace/job tags on every event (an event's own tags win), views
// share their parent's stream, and the untagged root
// tracer's output is unchanged — no trace/job keys appear in its JSON,
// so one-shot CLI traces stay byte-compatible.
func TestTracerForJobTagging(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	view := tr.ForJob("11111111111111111111111111111111", "job1")
	tr.Emit(Event{Ev: "iter", Iter: 1})
	view.Emit(Event{Ev: "stage", Stage: "queue", Nanos: 10})
	view.Emit(Event{Ev: "span", Kernel: "resid", Level: 3, Nanos: 20})
	view.Emit(Event{Ev: "stage", Stage: "solve", Nanos: 30, Trace: "2222", Job: "job2"})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	events, torn, err := ReadEventsTolerant(strings.NewReader(buf.String()))
	if err != nil || torn != 0 || len(events) != 4 {
		t.Fatalf("reading the trace: %d events, %d torn lines, err %v; want 4 events", len(events), torn, err)
	}
	if events[0].Trace != "" || events[0].Job != "" {
		t.Fatalf("root tracer event grew tags: %+v", events[0])
	}
	if strings.Contains(strings.Split(buf.String(), "\n")[0], "trace") {
		t.Fatalf("untagged event serializes trace keys: %s", strings.Split(buf.String(), "\n")[0])
	}
	for _, e := range events[1:3] {
		if e.Trace != "11111111111111111111111111111111" || e.Job != "job1" {
			t.Fatalf("view event not tagged: %+v", e)
		}
	}
	if events[3].Trace != "2222" || events[3].Job != "job2" {
		t.Fatalf("event's own tags must win over the view's: %+v", events[3])
	}
}

func BenchmarkRecordDisabled(b *testing.B) {
	var c *Collector
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Record(0, "subRelax", 5, 1000, time.Microsecond)
	}
}

func BenchmarkRecordEnabled(b *testing.B) {
	c := NewCollector(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Record(0, "subRelax", 5, 1000, time.Microsecond)
	}
}

// The coverage gauge must aggregate across levels and workers: rows from
// different shards and grid levels all count against the one solve span.
func TestCoverageAcrossWorkersAndLevels(t *testing.T) {
	c := NewCollector(4)
	c.Record(0, TotalKernel, 5, 1000, 100*time.Millisecond)
	c.Record(0, "subRelax", 5, 400, 30*time.Millisecond)
	c.Record(1, "subRelax", 4, 300, 20*time.Millisecond)
	c.Record(2, "addRelax", 3, 200, 10*time.Millisecond)
	c.Record(3, "interpolate", 2, 100, 20*time.Millisecond)
	frac, ok := c.Snapshot().Coverage()
	if !ok || frac < 0.799 || frac > 0.801 {
		t.Fatalf("coverage = %v ok=%v, want 0.8", frac, ok)
	}
	// More than one solve span (repeated Solve calls) keeps the ratio.
	c.Record(1, TotalKernel, 5, 1000, 100*time.Millisecond)
	c.Record(0, "subRelax", 5, 400, 80*time.Millisecond)
	frac, ok = c.Snapshot().Coverage()
	if !ok || frac < 0.799 || frac > 0.801 {
		t.Fatalf("coverage after second solve = %v ok=%v, want 0.8", frac, ok)
	}
}

// costMap adapts a variant-blind per-kernel cost table to a CostModel.
func costMap(m map[string]Cost) CostModel {
	return func(kernel, _ string) Cost { return m[kernel] }
}
