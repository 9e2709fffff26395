package withloop_test

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/simd"
	wl "repro/internal/withloop"
)

// The kernel variant resolves by precedence MG_FORCE_VARIANT > Env.Variant
// > the rule. VariantFor is the only place that spells it; Env.PlanFor
// (what a core sweep runs) and core.PlaneVariant (what a distributed rank
// runs, keyed on the row extent and without an Env.Variant) are driven
// from the same cases so they cannot drift from it.
func TestVariantPrecedence(t *testing.T) {
	saved := wl.ForcedVariant
	defer func() { wl.ForcedVariant = saved }()

	const level = 5
	cases := []struct {
		name   string
		forced string
		env    string
		level  int
		want   string
	}{
		{name: "rule", level: level, want: wl.DefaultVariant(level)},
		{name: "rule below rows of 8", level: 2, want: wl.VariantScalar},
		{name: "Env.Variant beats the rule", env: wl.VariantScalar, level: level, want: wl.VariantScalar},
		{name: "Env.Variant beats the rule below rows of 8", env: wl.VariantSIMD, level: 2, want: wl.VariantSIMD},
		{name: "MG_FORCE_VARIANT beats the rule", forced: wl.VariantBuffered, level: 2, want: wl.VariantBuffered},
		{name: "MG_FORCE_VARIANT beats Env.Variant", forced: wl.VariantSIMD, env: wl.VariantScalar, level: level, want: wl.VariantSIMD},
	}
	for _, c := range cases {
		wl.ForcedVariant = func() string { return c.forced }
		if got := wl.VariantFor(c.level, c.env); got != c.want {
			t.Errorf("%s: VariantFor = %q, want %q", c.name, got, c.want)
		}
		e := wl.Default()
		e.Variant = c.env
		if _, got := e.PlanFor(c.level, 1); got != c.want {
			t.Errorf("%s: PlanFor variant = %q, want %q", c.name, got, c.want)
		}
		if c.env != "" {
			continue // a rank has no Env.Variant
		}
		if got := core.PlaneVariant(1 << c.level); got != c.want {
			t.Errorf("%s: PlaneVariant(%d) = %q, want %q", c.name, 1<<c.level, got, c.want)
		}
	}
}

// The backend rule is total over the three backends and a function of row
// length and CPU only: scalar below rows of 8 (level 3) everywhere; from
// there up simd exactly where the AVX2 path is live, buffered where it is
// not.
func TestDefaultVariantRule(t *testing.T) {
	long := wl.VariantBuffered
	if simd.Available() {
		long = wl.VariantSIMD
	}
	for level := 0; level <= 9; level++ {
		want := wl.VariantScalar
		if level >= 3 {
			want = long
		}
		if got := wl.DefaultVariant(level); got != want {
			t.Errorf("DefaultVariant(%d) = %q, want %q (AVX2 live: %v)", level, got, want, simd.Available())
		}
	}
}

// MG_SIMD_DISABLE is read once at start-up, so its effect on the rule is
// checked in a child process: with it set, TestDefaultVariantRule must see
// the AVX2 path off — and so expect buffered on the long rows.
func TestDefaultVariantBufferedWhenSIMDDisabled(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^(TestDefaultVariantRule|TestSIMDDisabledChild)$", "-test.v")
	cmd.Env = append(os.Environ(), "MG_SIMD_DISABLE=1")
	out, err := cmd.CombinedOutput()
	for _, want := range []string{"--- PASS: TestDefaultVariantRule", "--- PASS: TestSIMDDisabledChild"} {
		if err != nil || !strings.Contains(string(out), want) {
			t.Fatalf("child under MG_SIMD_DISABLE=1: %v, want %q in\n%s", err, want, out)
		}
	}
}

func TestSIMDDisabledChild(t *testing.T) {
	if _, set := os.LookupEnv("MG_SIMD_DISABLE"); !set {
		t.Skip("runs as the child of TestDefaultVariantBufferedWhenSIMDDisabled")
	}
	if simd.Available() {
		t.Fatal("AVX2 path live despite MG_SIMD_DISABLE")
	}
}

// A misspelt MG_FORCE_VARIANT used to run the scalar loops under the
// misspelt name — a mistyped CI leg went green testing the wrong backend.
// It must stop the process at first use and name the accepted values. The
// variable is read once per process, hence the child.
func TestMisspeltForcedVariantFailsLoudly(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^TestMisspeltForcedVariantChild$")
	cmd.Env = append(os.Environ(), "MG_FORCE_VARIANT=avx2")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child under MG_FORCE_VARIANT=avx2 passed:\n%s", out)
	}
	for _, want := range []string{`MG_FORCE_VARIANT="avx2"`, wl.VariantScalar, wl.VariantBuffered, wl.VariantSIMD} {
		if !strings.Contains(string(out), want) {
			t.Errorf("child's failure does not mention %q:\n%s", want, out)
		}
	}
}

func TestMisspeltForcedVariantChild(t *testing.T) {
	if os.Getenv("MG_FORCE_VARIANT") != "avx2" {
		t.Skip("runs as the child of TestMisspeltForcedVariantFailsLoudly")
	}
	_, variant := wl.Default().PlanFor(5, 1)
	t.Logf("PlanFor returned %q", variant) // unreachable: the read panics
}
