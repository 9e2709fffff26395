package perfdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/perfstat"
)

// fixtureSnapshot builds a small two-kernel snapshot; scale multiplies
// every sample of the named kernel (1.0 elsewhere), modelling an
// injected slowdown in exactly one (kernel, level) row.
func fixtureSnapshot(slowKernel string, slowLevel int, scale float64) *Snapshot {
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02}
	mk := func(key Key, unit float64, f float64) Row {
		samples := make([]float64, len(base))
		for i, v := range base {
			samples[i] = v * unit * f
		}
		return NewRow(key, samples)
	}
	factor := func(kernel string, level int) float64 {
		if kernel == slowKernel && level == slowLevel {
			return scale
		}
		return 1
	}
	// Per-kernel rows in milliseconds; the solve row is their sum plus
	// fixed overhead, so a kernel slowdown moves the total consistently.
	sub := mk(Key{"SAC", "S", "subRelax", 5}, 10e-3, factor("subRelax", 5))
	interp := mk(Key{"SAC", "S", "interpolate", 5}, 5e-3, factor("interpolate", 5))
	s := &Snapshot{
		Schema:  SchemaVersion,
		Created: "2026-08-06T00:00:00Z",
		Host:    CollectHost(),
		Git:     Git{SHA: "deadbeefdeadbeefdeadbeefdeadbeefdeadbeef"},
		Config:  Config{Samples: len(base), Warmup: 2, Workers: 1},
	}
	solveSamples := make([]float64, len(base))
	for i := range base {
		solveSamples[i] = sub.Samples[i] + interp.Samples[i] + 2e-3
	}
	solve := NewRow(Key{"SAC", "S", TotalKernel, 5}, solveSamples)
	s.Rows = []Row{solve, sub, interp}
	s.SortRows()
	return s
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := fixtureSnapshot("", 0, 1)
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := s.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Errorf("round trip mismatch:\nsaved  %+v\nloaded %+v", s, back)
	}
}

// copySnapshot deep-copies via a JSON round trip so mutations cannot
// leak between cases.
func copySnapshot(t *testing.T, s *Snapshot) *Snapshot {
	t.Helper()
	var sb strings.Builder
	if err := s.write(&sb); err != nil {
		t.Fatal(err)
	}
	cp, err := read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestValidateRejectsCorruptSnapshots(t *testing.T) {
	good := fixtureSnapshot("", 0, 1)
	cases := []struct {
		name    string
		mutate  func(*Snapshot)
		wantErr string
	}{
		{name: "wrong version", mutate: func(s *Snapshot) { s.Schema = 99 }, wantErr: "unsupported schema version 99"},
		{name: "old version", mutate: func(s *Snapshot) { s.Schema = SchemaVersion - 1 }, wantErr: "unsupported schema version 1"},
		{name: "zero version", mutate: func(s *Snapshot) { s.Schema = 0 }, wantErr: "unsupported schema version"},
		{name: "no rows", mutate: func(s *Snapshot) { s.Rows = nil }, wantErr: "no rows"},
		{name: "empty samples", mutate: func(s *Snapshot) { s.Rows[0].Samples = nil }, wantErr: "no samples"},
		{name: "NaN sample", mutate: func(s *Snapshot) { s.Rows[0].Samples[0] = math.NaN() }, wantErr: "finite"},
		{name: "negative sample", mutate: func(s *Snapshot) { s.Rows[0].Samples[0] = -1 }, wantErr: "finite"},
		{name: "duplicate key", mutate: func(s *Snapshot) { s.Rows = append(s.Rows, s.Rows[0]) }, wantErr: "duplicate row"},
		{name: "unnamed row", mutate: func(s *Snapshot) { s.Rows[0].Kernel = "" }, wantErr: "empty impl, class or kernel"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp := copySnapshot(t, good)
			tc.mutate(cp)
			err := cp.Validate()
			if err == nil {
				t.Fatalf("Validate accepted corrupt snapshot %q", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestReadAndLoadRejectCorruptFiles(t *testing.T) {
	// Syntactically broken input fails with a clear parse error.
	if _, err := read(strings.NewReader("not a snapshot{")); err == nil ||
		!strings.Contains(err.Error(), "not a benchmark snapshot") {
		t.Errorf("Read parse error = %v, want 'not a benchmark snapshot'", err)
	}
	// A mis-versioned file on disk is rejected by Load with the path in
	// the message.
	bad := fixtureSnapshot("", 0, 1)
	bad.Schema = SchemaVersion + 1
	data, err := json.Marshal(bad)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_bad.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(path)
	if err == nil {
		t.Fatal("Load accepted a mis-versioned snapshot")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("unsupported schema version %d", SchemaVersion+1)) ||
		!strings.Contains(err.Error(), "BENCH_bad.json") {
		t.Errorf("Load error %q missing version or path", err)
	}
}

// The Variant field survives a Write/Read round trip and stays off the
// wire when empty.
func TestVariantRoundTrip(t *testing.T) {
	s := fixtureSnapshot("", 0, 1)
	s.Rows[0].Variant = "buffered"
	var buf bytes.Buffer
	if err := s.write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Rows[0].Variant; got != "buffered" {
		t.Fatalf("variant after round trip = %q, want %q", got, "buffered")
	}
	unstamped := fixtureSnapshot("", 0, 1)
	buf.Reset()
	if err := unstamped.write(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"variant"`)) {
		t.Fatalf("empty variants serialized a field:\n%s", buf.String())
	}
}

func TestCompareSelfIsIndistinguishable(t *testing.T) {
	s := fixtureSnapshot("", 0, 1)
	cmp := Compare(s, s, perfstat.Thresholds{Alpha: 0.01, MinRel: 0.10})
	if len(cmp.Rows) != 3 {
		t.Fatalf("compared %d rows, want 3", len(cmp.Rows))
	}
	for _, r := range cmp.Rows {
		if r.Verdict != perfstat.Indistinguishable {
			t.Errorf("self-compare row %s verdict %v, want indistinguishable", r.Key, r.Verdict)
		}
	}
	if cmp.HasRegression() {
		t.Error("self-compare reports a regression")
	}
	var sb strings.Builder
	cmp.WriteTable(&sb)
	if !strings.Contains(sb.String(), "no significant regressions") {
		t.Errorf("table missing the all-clear line:\n%s", sb.String())
	}
}

func TestCompareFlagsInjectedSlowdown(t *testing.T) {
	base := fixtureSnapshot("", 0, 1)
	slowed := fixtureSnapshot("subRelax", 5, 1.6) // 60% slower subRelax@5
	cmp := Compare(base, slowed, perfstat.Thresholds{Alpha: 0.01, MinRel: 0.10})
	if !cmp.HasRegression() {
		t.Fatal("injected slowdown not flagged")
	}
	regs := cmp.regressions()
	// The top regression by contribution must be either the slowed kernel
	// row or the solve row it inflates; the slowed kernel row itself must
	// be present and correctly attributed.
	var found bool
	for _, r := range regs {
		if r.Key.Kernel == "subRelax" && r.Key.Level == 5 {
			found = true
			if r.Delta < 0.4 || r.Delta > 0.8 {
				t.Errorf("subRelax@5 delta %.2f, want ~0.6", r.Delta)
			}
		}
		if r.Key.Kernel == "interpolate" {
			t.Errorf("untouched kernel %s flagged as regression", r.Key)
		}
	}
	if !found {
		t.Fatalf("subRelax@5 missing from regressions: %+v", regs)
	}
	// Attribution of the solve delta names subRelax@5 first.
	attr := cmp.attribute("SAC", "S")
	if len(attr) == 0 || attr[0].Key.Kernel != "subRelax" || attr[0].Key.Level != 5 {
		t.Fatalf("attribution did not rank subRelax@5 first: %+v", attr)
	}
	var sb strings.Builder
	cmp.WriteTable(&sb)
	out := sb.String()
	if !strings.Contains(out, "REGRESSION") {
		t.Errorf("table missing REGRESSION line:\n%s", out)
	}
	if !strings.Contains(out, "subRelax@5") {
		t.Errorf("table missing the attributed kernel:\n%s", out)
	}
}

func TestCompareReportsMissingRowsAndHostMismatch(t *testing.T) {
	base := fixtureSnapshot("", 0, 1)
	cur := fixtureSnapshot("", 0, 1)
	// Drop one row from current, add a new one, and change the host.
	cur.Rows = cur.Rows[:len(cur.Rows)-1]
	extra := NewRow(Key{"SAC", "S", "comm3", 3}, []float64{1e-3, 1.1e-3, 0.9e-3})
	cur.Rows = append(cur.Rows, extra)
	cur.SortRows()
	cur.Host.CPUs = base.Host.CPUs + 7
	cmp := Compare(base, cur, perfstat.Thresholds{})
	if len(cmp.OnlyBase) != 1 {
		t.Errorf("OnlyBase = %v, want exactly one key", cmp.OnlyBase)
	}
	if len(cmp.OnlyCur) != 1 || cmp.OnlyCur[0].Kernel != "comm3" {
		t.Errorf("OnlyCur = %v, want comm3@3", cmp.OnlyCur)
	}
	if !cmp.HostMismatch {
		t.Error("host mismatch not detected")
	}
	var sb strings.Builder
	cmp.WriteTable(&sb)
	if !strings.Contains(sb.String(), "WARNING") {
		t.Errorf("table missing host-mismatch warning:\n%s", sb.String())
	}
}

func TestGitShortSHA(t *testing.T) {
	g := Git{SHA: "0123456789abcdef0123"}
	if got := g.ShortSHA(); got != "0123456789ab" {
		t.Errorf("ShortSHA = %q", got)
	}
	g = Git{SHA: "unknown"}
	if got := g.ShortSHA(); got != "unknown" {
		t.Errorf("ShortSHA = %q", got)
	}
}
