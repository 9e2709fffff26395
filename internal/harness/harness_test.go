package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/nas"
	"repro/internal/smp"
)

func TestRunFig11ClassS(t *testing.T) {
	var buf bytes.Buffer
	rows := RunFig11(&buf, []nas.Class{nas.ClassS}, 1)
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	row := rows[0]
	for _, c := range contestants {
		impl := c.name
		if row.Seconds[impl] <= 0 {
			t.Errorf("%s: non-positive time %v", impl, row.Seconds[impl])
		}
		if !row.Verified[impl] {
			t.Errorf("%s: class S did not verify (norm %v)", impl, row.Norm[impl])
		}
	}
	out := buf.String()
	for _, frag := range []string{"Figure 11", "F77", "SAC", "C/OpenMP", "verified: true true true"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestTimedBestOfRepeats(t *testing.T) {
	calls := 0
	d, norm := timed(3, func() {}, func() float64 {
		calls++
		return float64(calls)
	})
	if calls != 3 {
		t.Fatalf("body ran %d times", calls)
	}
	if norm != 3 {
		t.Fatalf("norm = %v, want the last result", norm)
	}
	if d <= 0 {
		t.Fatalf("duration %v", d)
	}
	// repeats < 1 is clamped.
	calls = 0
	timed(0, func() {}, func() float64 { calls++; return 0 })
	if calls != 1 {
		t.Fatalf("clamped repeats ran %d times", calls)
	}
}

func TestCollectProfilesClassS(t *testing.T) {
	profiles := CollectProfiles(nas.ClassS)
	for _, c := range contestants {
		impl := c.name
		p, ok := profiles[impl]
		if !ok {
			t.Fatalf("missing profile for %s", impl)
		}
		if p.SerialSeconds() <= 0 {
			t.Errorf("%s: empty profile", impl)
		}
		if len(p.Regions) < nas.ClassS.LT() {
			t.Errorf("%s: only %d regions", impl, len(p.Regions))
		}
	}
	// SAC probes the paper's operation names; f77 the Fortran kernels.
	names := map[string]bool{}
	for _, r := range profiles["SAC"].Regions {
		names[r.Name] = true
	}
	for _, want := range []string{"resid", "smooth", "fine2coarse", "coarse2fine"} {
		if !names[want] {
			t.Errorf("SAC profile missing region %q", want)
		}
	}
}

func TestFig12And13ClassS(t *testing.T) {
	var buf bytes.Buffer
	m := smp.Enterprise4000()
	series := RunFig12(&buf, []nas.Class{nas.ClassS}, m)
	if len(series) != 3 {
		t.Fatalf("series = %d, want 3", len(series))
	}
	for _, s := range series {
		if len(s.Speedups) != m.MaxProcs {
			t.Fatalf("%s: %d speedup points", s.Impl, len(s.Speedups))
		}
		if s.Speedups[0] != 1 {
			t.Fatalf("%s: S(1) = %v", s.Impl, s.Speedups[0])
		}
	}
	rebased := RunFig13(&buf, series, m)
	if len(rebased) != 3 {
		t.Fatalf("rebased series = %d", len(rebased))
	}
	// F77's rebased curve equals its own curve (it is the baseline).
	for i, s := range series {
		if s.Impl != "F77" {
			continue
		}
		for p := range s.Speedups {
			if diff := rebased[i].Speedups[p] - s.Speedups[p]; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("F77 rebased curve differs from own curve at P=%d", p+1)
			}
		}
	}
	// Every curve is scaled by exactly f77Serial/ownSerial (on tiny class
	// S the ordering itself is timing noise, so assert the arithmetic).
	var f77Serial float64
	for _, s := range series {
		if s.Impl == "F77" {
			f77Serial = s.Serial
		}
	}
	for i, s := range series {
		factor := f77Serial / s.Serial
		for p := range s.Speedups {
			want := s.Speedups[p] * factor
			if diff := rebased[i].Speedups[p] - want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("%s: rebased[%d] = %v, want %v", s.Impl, p+1, rebased[i].Speedups[p], want)
			}
		}
	}
	out := buf.String()
	for _, frag := range []string{"Figure 12", "Figure 13", "serial"} {
		if !strings.Contains(out, frag) {
			t.Errorf("output missing %q", frag)
		}
	}
}

func TestRunCodeSize(t *testing.T) {
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	root := filepath.Join(filepath.Dir(file), "..", "..")
	var buf bytes.Buffer
	rows, err := RunCodeSize(&buf, root)
	if err != nil {
		t.Fatal(err)
	}
	roles := len(codeRoles())
	if len(rows) != roles+3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Lines < 50 && len(r.Files) > 0 {
			t.Errorf("%s: implausible line count %d", r.Impl, r.Lines)
		}
	}
	// The paper's direction: the generic SAC program is smaller than the
	// F77 port.
	if rows[0].Lines >= rows[roles].Lines {
		t.Errorf("SAC program (%d lines) not smaller than the F77 port (%d lines)",
			rows[0].Lines, rows[roles].Lines)
	}
	// Every source file of the SAC program has exactly one role.
	role := map[string][]string{}
	for _, r := range rows[:roles] {
		for _, f := range r.Files {
			role[f] = append(role[f], r.Impl)
		}
	}
	for _, dir := range []string{"internal/core", "internal/simd"} {
		entries, err := os.ReadDir(filepath.Join(root, dir))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if strings.HasSuffix(name, "_test.go") || !strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, ".s") {
				continue
			}
			rel := dir + "/" + name
			if len(role[rel]) != 1 {
				t.Errorf("%s has %d roles %v, want exactly one", rel, len(role[rel]), role[rel])
			}
			delete(role, rel)
		}
	}
	for f := range role {
		t.Errorf("%s has a role but is not a source file of the SAC program", f)
	}
}

func TestRunCodeSizeBadDir(t *testing.T) {
	var buf bytes.Buffer
	if _, err := RunCodeSize(&buf, "/nonexistent-root"); err == nil {
		t.Fatal("expected error for missing directory")
	}
}

func TestRenderSpeedupChart(t *testing.T) {
	var buf bytes.Buffer
	series := []SpeedupSeries{
		{Impl: "F77", Speedups: []float64{1, 1.5, 2, 2.4}},
		{Impl: "SAC", Speedups: []float64{1, 1.8, 2.5, 3.2}},
		{Impl: "C/OpenMP", Speedups: []float64{1, 1.9, 2.8, 3.7}},
	}
	renderSpeedupChart(&buf, "test chart", series)
	out := buf.String()
	for _, frag := range []string{"test chart", "F", "S", "O", "processors"} {
		if !strings.Contains(out, frag) {
			t.Errorf("chart missing %q:\n%s", frag, out)
		}
	}
	// Empty input draws nothing.
	var empty bytes.Buffer
	renderSpeedupChart(&empty, "none", nil)
	if empty.Len() != 0 {
		t.Error("empty series produced output")
	}
}

func TestMops(t *testing.T) {
	// Class S: 58 * 32^3 * 4 flops; at 1 second that is ~7.6 Mop/s.
	got := mops(nas.ClassS, 1.0)
	want := 58.0 * 32 * 32 * 32 * 4 / 1e6
	if got != want {
		t.Fatalf("Mops = %v, want %v", got, want)
	}
}

func TestRunMPIStats(t *testing.T) {
	var buf bytes.Buffer
	rows := RunMPIStats(&buf, nas.ClassS, []int{1, 4})
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Verified {
			t.Errorf("%d ranks did not verify (rnm2 %v)", r.Ranks, r.Rnm2)
		}
	}
	if rows[0].Messages != 0 {
		t.Errorf("1 rank sent %d messages", rows[0].Messages)
	}
	if rows[1].Messages == 0 {
		t.Error("4 ranks sent no messages")
	}
	if !strings.Contains(buf.String(), "domain decomposition") {
		t.Error("missing table header")
	}
}
