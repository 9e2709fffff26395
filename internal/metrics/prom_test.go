package metrics

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// promSnapshot builds a small collector snapshot with two kernels and two
// workers for the exposition tests.
func promSnapshot() Snapshot {
	c := NewCollector(2)
	c.Record(0, "subRelax", 5, 27000, 2*time.Millisecond)
	c.Record(1, "subRelax", 5, 27000, 3*time.Millisecond)
	c.Record(0, "addRelax", 4, 8000, 500*time.Microsecond)
	c.Record(0, TotalKernel, 5, 100000, 10*time.Millisecond)
	c.RecordBusy(0, 4*time.Millisecond)
	c.RecordBusy(1, 2*time.Millisecond)
	return c.Snapshot()
}

func TestPrometheusRoundTrip(t *testing.T) {
	snap := promSnapshot()
	costs := costMap(map[string]Cost{"subRelax": {Flops: 24, Bytes: 24}})
	var buf bytes.Buffer
	snap.WritePrometheus(&buf, costs)

	samples, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	idx := PromIndex(samples)

	// The counters must round-trip exactly.
	find := func(name, kernel, level string) PromSample {
		t.Helper()
		for _, s := range idx[name] {
			if s.Label("kernel") == kernel && s.Label("level") == level {
				return s
			}
		}
		t.Fatalf("no sample %s{kernel=%q,level=%q} in:\n%s", name, kernel, level, buf.String())
		return PromSample{}
	}
	if v := find("mg_kernel_invocations_total", "subRelax", "5").Value; v != 2 {
		t.Fatalf("subRelax@5 invocations = %g, want 2", v)
	}
	if v := find("mg_kernel_points_total", "subRelax", "5").Value; v != 54000 {
		t.Fatalf("subRelax@5 points = %g, want 54000", v)
	}
	if v := find("mg_kernel_seconds_total", "subRelax", "5").Value; v != 0.005 {
		t.Fatalf("subRelax@5 seconds = %g, want 0.005", v)
	}
	if v := find("mg_kernel_gflops", "subRelax", "5").Value; v <= 0 {
		t.Fatalf("subRelax@5 gflops = %g, want > 0", v)
	}

	// Histogram invariants: buckets cumulative, count matches, +Inf last.
	var cum float64 = -1
	var infSeen bool
	for _, s := range idx["mg_kernel_duration_seconds_bucket"] {
		if s.Label("kernel") != "subRelax" || s.Label("level") != "5" {
			continue
		}
		if s.Value < cum {
			t.Fatalf("histogram bucket not cumulative: %g after %g", s.Value, cum)
		}
		cum = s.Value
		if s.Label("le") == "+Inf" {
			infSeen = true
			if s.Value != 2 {
				t.Fatalf("+Inf bucket = %g, want 2 (the invocation count)", s.Value)
			}
		}
	}
	if !infSeen {
		t.Fatal("histogram has no +Inf bucket")
	}
	if v := find("mg_kernel_duration_seconds_count", "subRelax", "5").Value; v != 2 {
		t.Fatalf("histogram count = %g, want 2", v)
	}

	// Coverage and worker series present.
	if len(idx["mg_kernel_coverage_ratio"]) != 1 {
		t.Fatal("missing coverage ratio")
	}
	var workers int
	for _, s := range idx["mg_worker_busy_seconds_total"] {
		if s.Label("worker") != "" {
			workers++
		}
	}
	if workers != 2 {
		t.Fatalf("worker busy series = %d, want 2", workers)
	}
}

func TestParsePrometheusEscapes(t *testing.T) {
	in := "# TYPE m_total counter\n" + `m_total{k="a\"b\\c\nd"} 1.5` + "\n"
	samples, err := ParsePrometheus(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 1 || samples[0].Value != 1.5 {
		t.Fatalf("parsed %+v", samples)
	}
	if got := samples[0].Label("k"); got != "a\"b\\c\nd" {
		t.Fatalf("label = %q", got)
	}
	// The writer escapes what the parser unescapes.
	var buf bytes.Buffer
	NewPromWriter(&buf).Gauge("m", "Escapes.", 1, "k", "a\"b\\c\nd")
	if samples, err = ParsePrometheus(&buf); err != nil || samples[0].Label("k") != "a\"b\\c\nd" {
		t.Fatalf("writer round trip: %+v, %v", samples, err)
	}
}

func TestParsePrometheusRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"1leading_digit 2",
		"name_only",
		`m{k="unterminated} 1`,
		`m{k=unquoted} 1`,
		"m not-a-number",
		"m_total 1",                            // no # TYPE line
		"# TYPE m gauge\n# TYPE m gauge\nm 1",  // a family declared twice
		"# TYPE m gauge\nm_bucket{le=\"1\"} 1", // _bucket of a non-histogram
	} {
		if _, err := ParsePrometheus(strings.NewReader(bad + "\n")); err == nil {
			t.Fatalf("ParsePrometheus accepted %q", bad)
		}
	}
}

// A sample counts in every exposed bucket whose le is at or above it and
// in none below it, as Prometheus's le requires; the sum is exact, and
// Observe and Merge allocate nothing.
func TestHistBuckets(t *testing.T) {
	vals := []int64{0, math.MaxInt64}
	for i := 0; i < 63; i++ {
		vals = append(vals, 1<<i-1, 1<<i, 1<<i+1)
	}
	for _, v := range vals {
		var h Hist
		h.Observe(v)
		if h.Sum != uint64(v) || h.Count() != 1 {
			t.Fatalf("Observe(%d): sum %d, count %d", v, h.Sum, h.Count())
		}
		var buf bytes.Buffer
		NewPromWriter(&buf).Histogram("h", "One sample.", &h, 1)
		samples, err := ParsePrometheus(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range samples {
			le, _ := strconv.ParseFloat(s.Label("le"), 64)
			if s.Name != "h_bucket" || math.IsInf(le, 1) {
				continue
			}
			want := 0.0
			if uint64(v) <= uint64(le) {
				want = 1
			}
			if s.Value != want {
				t.Errorf("sample %d counts %g in le=%s, want %g", v, s.Value, s.Label("le"), want)
			}
		}
	}
	var a, b Hist
	a.Observe(5)
	b.Observe(1 << 40)
	a.Merge(&b)
	if a.Count() != 2 || a.Sum != 5+1<<40 {
		t.Fatalf("merged count %d, sum %d", a.Count(), a.Sum)
	}
	if allocs := testing.AllocsPerRun(100, func() { a.Observe(12345); a.Merge(&b) }); allocs != 0 {
		t.Fatalf("Observe and Merge allocate %v per call", allocs)
	}
}

// The writer keeps the first write error and writes nothing after it.
func TestPromWriterLatchesError(t *testing.T) {
	w := &failingWriter{}
	p := NewPromWriter(w)
	p.Counter("a_total", "A.", 1)
	p.Gauge("b", "B.", 2, "k", "v")
	if p.Err() == nil || w.writes != 1 {
		t.Fatalf("Err() = %v after %d writes, want the first write's error and no more writes", p.Err(), w.writes)
	}
}

type failingWriter struct{ writes int }

func (w *failingWriter) Write([]byte) (int, error) {
	w.writes++
	return 0, errors.New("disk full")
}
