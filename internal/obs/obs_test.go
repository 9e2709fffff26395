package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestTraceIDMintParse pins the trace-id contract: NewTraceID mints
// distinct, valid, 32-hex-digit IDs; parseTraceID round-trips them and
// rejects everything malformed (wrong length, non-hex, all-zero).
func TestTraceIDMintParse(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		id := NewTraceID()
		if !id.valid() {
			t.Fatalf("minted invalid trace ID %v", id)
		}
		s := id.String()
		if len(s) != 32 {
			t.Fatalf("trace ID %q is %d chars, want 32", s, len(s))
		}
		if seen[s] {
			t.Fatalf("duplicate trace ID %q", s)
		}
		seen[s] = true
		back, err := parseTraceID(s)
		if err != nil || back != id {
			t.Fatalf("round trip of %q: %v %v", s, back, err)
		}
	}
	for _, bad := range []string{
		"", "abc", strings.Repeat("0", 32), strings.Repeat("g", 32),
		strings.Repeat("a", 31), strings.Repeat("a", 33),
		"ABCDEF00112233445566778899aabbcc", // upper case is not canonical
	} {
		if _, err := parseTraceID(bad); err == nil {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
		if ValidTraceID(bad) {
			t.Errorf("ValidTraceID(%q) = true", bad)
		}
	}
}

// TestLoggerFormats pins the -log-format contract: text and json
// handlers, and a typed error for anything else.
func TestLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	log, err := NewLogger(&buf, "json", 0)
	if err != nil {
		t.Fatal(err)
	}
	log.Info("job admitted", "trace_id", "00112233445566778899aabbccddeeff", "job_id", "abc", "stage", StageQueue)
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("json log line %q: %v", buf.String(), err)
	}
	for _, key := range []string{"trace_id", "job_id", "stage", "msg"} {
		if _, ok := line[key]; !ok {
			t.Errorf("json log line missing %q: %v", key, line)
		}
	}

	buf.Reset()
	log, err = NewLogger(&buf, "text", 0)
	if err != nil {
		t.Fatal(err)
	}
	log.Info("hello", "tenant", "gold")
	if !strings.Contains(buf.String(), "tenant=gold") {
		t.Errorf("text log line %q missing tenant attr", buf.String())
	}

	if _, err := NewLogger(&buf, "xml", 0); err == nil {
		t.Error("NewLogger accepted format xml")
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted level loud")
	}
}

// TestFlightRingWraparound laps the job ring about 64 times from
// concurrent writers (run under -race in CI), so writers often claim
// the same slot, and checks the snapshot invariants: capacity records
// retained, every record internally consistent, sequence numbers unique
// and ordered, lifetime count exact.
func TestFlightRingWraparound(t *testing.T) {
	const slots, writers, perWriter = jobSlots, 4, 16 * jobSlots
	rec := New(Config{}).Recorder()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				rec.add(JobRecord{TraceID: id, JobID: id, State: "done"})
				rec.noteDepth(i, w)
				rec.noteHealth("converging")
			}
		}()
	}
	wg.Wait()

	d := rec.snapshot(ReasonRequest)
	if d.JobsSeen != writers*perWriter {
		t.Fatalf("JobsSeen = %d, want %d", d.JobsSeen, writers*perWriter)
	}
	if len(d.Jobs) != slots {
		t.Fatalf("retained %d records, want the ring capacity %d", len(d.Jobs), slots)
	}
	seenSeq := map[uint64]bool{}
	seenSlot := map[uint64]bool{}
	for i, r := range d.Jobs {
		if seenSeq[r.Seq] {
			t.Fatalf("duplicate seq %d in snapshot", r.Seq)
		}
		seenSeq[r.Seq] = true
		if slot := r.Seq % slots; seenSlot[slot] {
			t.Fatalf("two records map to ring slot %d", slot)
		} else {
			seenSlot[slot] = true
		}
		if i > 0 && d.Jobs[i-1].Seq > r.Seq {
			t.Fatalf("snapshot not seq-ordered: %d before %d", d.Jobs[i-1].Seq, r.Seq)
		}
		// Torn records would show here: the IDs are written together.
		if r.TraceID != r.JobID {
			t.Fatalf("torn record: trace %q vs job %q", r.TraceID, r.JobID)
		}
	}
}

// TestFlightTriggerDump covers the anomaly path end to end: a poisoned
// job fed through the Observer triggers a non-finite dump file whose
// JSON names the job, and the rate limiter swallows an immediate repeat.
func TestFlightTriggerDump(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	log, err := NewLogger(&buf, "json", 0)
	if err != nil {
		t.Fatal(err)
	}
	var reported []string
	o := New(Config{Log: log, FlightDir: dir, DumpMinInterval: time.Hour,
		OnDump: func(reason, path string) { reported = append(reported, reason+" "+path) }})

	o.JobFinished(JobRecord{
		TraceID: "00112233445566778899aabbccddeeff", JobID: "deadbeef00000001",
		Tenant: "chaos", State: "failed", Error: "non-finite residual norm",
		NonFinite: true, Stages: Stages{SolveSeconds: 0.25, TotalSeconds: 0.5},
	})

	// Exactly the finished dump: the temp file it was written through is
	// gone, and OnDump named it.
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(files) != 1 || !strings.HasSuffix(files[0], "-"+ReasonNonFinite+".json") {
		t.Fatalf("dump dir holds %v (err %v), want exactly one non-finite dump", files, err)
	}
	if len(reported) != 1 || reported[0] != ReasonNonFinite+" "+files[0] {
		t.Fatalf("OnDump calls = %v, want one for %s", reported, files[0])
	}
	blob, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(blob, &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if d.Reason != ReasonNonFinite {
		t.Fatalf("dump reason = %q, want %q", d.Reason, ReasonNonFinite)
	}
	found := false
	for _, r := range d.Jobs {
		if r.JobID == "deadbeef00000001" && r.NonFinite {
			found = true
		}
	}
	if !found {
		t.Fatalf("dump does not name the poisoned job: %s", blob)
	}
	if !strings.Contains(buf.String(), "deadbeef00000001") {
		t.Error("log lines do not carry the poisoned job's id")
	}

	// Rate limit: a second anomaly inside DumpMinInterval is recorded in
	// the ring but does not produce a second file.
	o.JobFinished(JobRecord{TraceID: "ffee2233445566778899aabbccddeeff",
		JobID: "deadbeef00000002", State: "failed", NonFinite: true})
	files, _ = filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if len(files) != 1 {
		t.Fatalf("rate limiter let a second dump through: %v", files)
	}
	if got := o.Recorder().Dumps(); got != 1 {
		t.Fatalf("Dumps() = %d, want 1", got)
	}
}

// TestFlightBurstTrigger pins the queue-full-burst trigger: BurstCount
// rejections inside one window fire exactly one dump.
func TestFlightBurstTrigger(t *testing.T) {
	rec := New(Config{BurstWindow: time.Hour, BurstCount: 3, DumpMinInterval: time.Hour}).Recorder()
	for i := 0; i < 2; i++ {
		if _, fired := rec.noteRejection(); fired {
			t.Fatalf("burst trigger fired after %d rejections, want 3", i+1)
		}
	}
	if _, fired := rec.noteRejection(); !fired {
		t.Fatal("burst trigger did not fire on the 3rd rejection")
	}
	if rec.Dumps() != 1 {
		t.Fatalf("Dumps() = %d, want 1", rec.Dumps())
	}
}

// TestStageHistPrometheus pins the mgd_stage_seconds exposition: one
// histogram series per (stage, status) with cumulative buckets, +Inf,
// sum and count; cached jobs observe ingress only.
func TestStageHistPrometheus(t *testing.T) {
	h := newStageHist()
	h.observeJob(JobRecord{State: "done",
		Stages: Stages{IngressSeconds: 0.0002, QueueSeconds: 0.02, SolveSeconds: 0.4,
			RespondSeconds: 0.0001, TotalSeconds: 0.42},
		DedupWaitSeconds: []float64{0.3, 0.35}})
	h.observeJob(JobRecord{State: "done", Cached: true, Stages: Stages{IngressSeconds: 0.0001}})

	count := map[string]uint64{}
	for _, s := range h.snapshot() {
		count[s.Stage+"/"+s.Status] = s.Hist.Count()
	}
	if got := count["ingress/done"]; got != 2 {
		t.Fatalf("ingress count = %d, want 2 (cold + cached)", got)
	}
	if got := count["solve/done"]; got != 1 {
		t.Fatalf("solve count = %d, want 1 (cached job must not observe solve)", got)
	}
	if got := count["dedup/done"]; got != 2 {
		t.Fatalf("dedup count = %d, want one observation per waiter", got)
	}

	var buf bytes.Buffer
	h.WritePrometheus(&buf)
	text := buf.String()
	for _, want := range []string{
		"# TYPE mgd_stage_seconds histogram",
		`mgd_stage_seconds_bucket{stage="solve",status="done",le="+Inf"} 1`,
		`mgd_stage_seconds_count{stage="ingress",status="done"} 2`,
		`mgd_stage_seconds_sum{stage="queue",status="done"}`,
		// Power-of-two bounds in seconds: the 0.4 s solve lies above
		// 2^28 ns and within 2^29 ns.
		`mgd_stage_seconds_bucket{stage="solve",status="done",le="0.268435456"} 0`,
		`mgd_stage_seconds_bucket{stage="solve",status="done",le="0.536870912"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// Buckets are cumulative: each count ≥ the previous bound's.
	samples, err := metrics.ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, s := range samples {
		if s.Name == "mgd_stage_seconds_bucket" && s.Label("stage") == "solve" {
			if s.Value < prev {
				t.Fatalf("bucket counts not cumulative at le=%s:\n%s", s.Label("le"), text)
			}
			prev = s.Value
		}
	}
}

// TestObserverDisabledZeroAlloc pins the disabled fast path — the same
// contract internal/metrics and internal/health keep: a nil Observer
// (and its nil recorder/histograms) must make every hook free.
func TestObserverDisabledZeroAlloc(t *testing.T) {
	var o *Observer
	var rec *FlightRecorder
	var h *StageHist
	allocs := testing.AllocsPerRun(1000, func() {
		o.JobAdmitted("t", "j", "tenant", 1, 1)
		o.JobDeduped("t", "j", "tenant")
		o.JobRejected("t", "tenant", time.Second)
		o.JobFinished(JobRecord{})
		o.HealthVerdict("converging")
		rec.add(JobRecord{})
		rec.noteDepth(1, 1)
		rec.noteHealth("x")
		h.observe(StageSolve, "done", 100*time.Millisecond)
		h.observeJob(JobRecord{})
	})
	if allocs != 0 {
		t.Fatalf("disabled observer path allocates %v bytes/op, want 0", allocs)
	}
}

// TestObserverNilAccessors: the accessors of a nil observer return
// usable values, so call sites never nil-check.
func TestObserverNilAccessors(t *testing.T) {
	var o *Observer
	o.Log().Info("dropped")
	if o.Hist() != nil || o.Recorder() != nil {
		t.Fatal("nil observer must return nil hist/recorder")
	}
	var buf bytes.Buffer
	if err := o.Recorder().WriteTo(&buf, ReasonRequest); err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("nil recorder snapshot is not JSON: %v", err)
	}
	if _, fired := o.Recorder().Trigger(ReasonSignal); fired {
		t.Fatal("nil recorder trigger fired")
	}
}
