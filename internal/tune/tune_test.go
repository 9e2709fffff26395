package tune

import (
	"bytes"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/simd"
)

// fakeClock advances a deterministic amount per reading, with a
// per-candidate cost table driving which plan wins.
type fakeClock struct {
	now  time.Time
	cost func(calls int) time.Duration
	n    int
}

func (c *fakeClock) read() time.Time {
	c.n++
	if c.n%2 == 0 && c.cost != nil {
		// Every second reading closes a Begin/commit pair; advance by the
		// cost of that call.
		c.now = c.now.Add(c.cost(c.n / 2))
	}
	return c.now
}

// Calibration must try every candidate Trials times and then settle on the
// cheapest one.
func TestCalibrationChoosesFastest(t *testing.T) {
	tu := New(4)
	tu.Trials = 2
	cands := tu.candidates(Key{Kernel: "k", Level: 5})
	if len(cands) < 8 {
		t.Fatalf("expected a rich candidate set for a parallel level-5 kernel, got %d", len(cands))
	}
	fastest := 3 // arbitrary candidate index made cheapest by the fake clock
	call := 0
	clock := &fakeClock{now: time.Unix(0, 0), cost: func(int) time.Duration {
		idx := call % len(cands)
		call++
		if idx == fastest {
			return time.Millisecond
		}
		return 10 * time.Millisecond
	}}
	tu.Now = clock.read
	for i := 0; i < len(cands)*tu.Trials; i++ {
		if tu.Settled() && i < len(cands)*tu.Trials {
			// Settling early would mean some candidate was skipped.
			t.Fatalf("tuner settled after %d of %d calibration calls", i, len(cands)*tu.Trials)
		}
		plan, commit := tu.Begin("k", 5)
		if plan != cands[i%len(cands)] {
			t.Fatalf("call %d used plan %v, want candidate %v", i, plan, cands[i%len(cands)])
		}
		commit()
	}
	if !tu.Settled() {
		t.Fatal("tuner did not settle after full calibration")
	}
	plan, _ := tu.Begin("k", 5)
	if plan != cands[fastest] {
		t.Fatalf("chose %v, want fastest candidate %v", plan, cands[fastest])
	}
}

// Sequential tuners only sweep tiles; coarse levels have no tile
// candidates larger than the grid.
func TestCandidateSets(t *testing.T) {
	seq := New(1)
	for _, c := range seq.candidates(Key{Kernel: "k", Level: 6}) {
		if c.SeqThreshold != SeqAlways {
			t.Fatalf("sequential tuner produced a parallel candidate %v", c)
		}
	}
	par := New(8)
	coarse := par.candidates(Key{Kernel: "k", Level: 1})
	for _, c := range coarse {
		if c.Tile != 0 {
			t.Fatalf("level-1 grid (2 interior points) got tile candidate %v", c)
		}
	}
	if len(coarse) != 5 {
		t.Fatalf("level-1 candidates = %d, want 5 (one per schedule)", len(coarse))
	}
}

// Plans loaded from JSON skip calibration entirely.
func TestLoadSkipsCalibration(t *testing.T) {
	tu := New(4)
	want := Plan{Policy: sched.Dynamic, Chunk: 2, Tile: 16}
	tu.SetPlan(Key{Kernel: "subRelax", Level: 5}, want)
	plan, _ := tu.Begin("subRelax", 5)
	if plan != want {
		t.Fatalf("Begin returned %v, want the installed plan %v", plan, want)
	}
	if !tu.Settled() {
		t.Fatal("tuner with only installed plans is not settled")
	}
}

// Save/Load round-trips the plan set bit-for-bit, including policy names.
func TestJSONRoundTrip(t *testing.T) {
	tu := New(4)
	tu.SetPlan(Key{Kernel: "subRelax", Level: 5}, Plan{Policy: sched.Dynamic, Tile: 16})
	tu.SetPlan(Key{Kernel: "subRelax", Level: 1}, Plan{Policy: sched.StaticBlock, SeqThreshold: SeqAlways})
	tu.SetPlan(Key{Kernel: "interpolate", Level: 4}, Plan{Policy: sched.Guided, Chunk: 3, Tile: 8})
	var buf bytes.Buffer
	if err := tu.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back := New(4)
	if err := back.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got, want := back.Plans(), tu.Plans(); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed plans:\n got %v\nwant %v", got, want)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"dynamic"`)) {
		t.Fatalf("policies not serialized by name:\n%s", buf.String())
	}
}

// Profiles written before the kernel-variant field existed (no "kernel"
// key in any plan) must keep loading, and their plans must dispatch as
// scalar — the only backend those profiles could have measured.
func TestLoadOldProfileDefaultsScalar(t *testing.T) {
	old := `{"workers":4,"plans":{
		"subRelax@5":{"policy":"dynamic","chunk":2,"tile":16},
		"interpolate@3":{"policy":"static-block","seq_threshold":-1}}}`
	tu := New(4)
	if err := tu.Load(strings.NewReader(old)); err != nil {
		t.Fatalf("pre-variant profile rejected: %v", err)
	}
	for key, plan := range tu.Plans() {
		if plan.Kernel != "" {
			t.Fatalf("%v: old profile loaded with Kernel %q, want empty", key, plan.Kernel)
		}
		if v := plan.Variant(); v != VariantScalar {
			t.Fatalf("%v: Variant() = %q, want %q", key, v, VariantScalar)
		}
	}
	// And the scalar default stays invisible on the wire: a plan with no
	// explicit variant must serialize without a "kernel" key, so profiles
	// written by this version remain readable by the previous one.
	var buf bytes.Buffer
	if err := tu.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"kernel"`)) {
		t.Fatalf("default-variant plans serialized a kernel field:\n%s", buf.String())
	}
}

// Save mid-calibration snapshots the current front-runner.
func TestSaveMidCalibration(t *testing.T) {
	tu := New(1)
	tu.Trials = 100 // never settles in this test
	clock := &fakeClock{now: time.Unix(0, 0), cost: func(int) time.Duration { return time.Millisecond }}
	tu.Now = clock.read
	_, commit := tu.Begin("k", 5)
	commit()
	plans := tu.Plans()
	if len(plans) != 1 {
		t.Fatalf("mid-calibration snapshot has %d plans, want 1", len(plans))
	}
}

// A key string survives the parse round trip, including kernel names
// containing '@'.
func TestKeyParse(t *testing.T) {
	for _, key := range []Key{{"subRelax", 5}, {"odd@name", 2}} {
		back, err := parseKey(key.String())
		if err != nil {
			t.Fatal(err)
		}
		if back != key {
			t.Fatalf("parseKey(%q) = %v, want %v", key.String(), back, key)
		}
	}
	if _, err := parseKey("nolevel"); err == nil {
		t.Fatal("parseKey accepted a key without a level")
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{Policy: sched.Dynamic, Chunk: 4, Tile: 16}
	if s := p.String(); s != "dynamic chunk=4 tile=16" {
		t.Fatalf("String = %q", s)
	}
	q := Plan{Policy: sched.StaticBlock, SeqThreshold: SeqAlways}
	if s := q.String(); s != "static-block seq" {
		t.Fatalf("String = %q", s)
	}
}

// The static backend rule: scalar below rows of 8 (level 3) everywhere,
// simd from there up exactly where the AVX2 path is live.
func TestDefaultVariantRule(t *testing.T) {
	for level := 0; level <= 9; level++ {
		want := VariantScalar
		if level >= 3 && simd.Available() {
			want = VariantSIMD
		}
		if got := DefaultVariant(level); got != want {
			t.Errorf("DefaultVariant(%d) = %q, want %q (AVX2 live: %v)", level, got, want, simd.Available())
		}
	}
}

// MG_SIMD_DISABLE is read once at start-up, so its effect on the rule is
// checked in a child process: with it set, every level must stay scalar.
// The child is this test binary running TestDefaultVariantSIMDDisabledChild,
// which skips itself unless the variable is present.
func TestDefaultVariantScalarWhenSIMDDisabled(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-test.run=^TestDefaultVariantSIMDDisabledChild$", "-test.v")
	cmd.Env = append(os.Environ(), "MG_SIMD_DISABLE=1")
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: TestDefaultVariantSIMDDisabledChild") {
		t.Fatalf("child under MG_SIMD_DISABLE=1: %v\n%s", err, out)
	}
}

func TestDefaultVariantSIMDDisabledChild(t *testing.T) {
	if _, set := os.LookupEnv("MG_SIMD_DISABLE"); !set {
		t.Skip("runs as the child of TestDefaultVariantScalarWhenSIMDDisabled")
	}
	if simd.Available() {
		t.Fatal("AVX2 path live despite MG_SIMD_DISABLE")
	}
	for level := 0; level <= 9; level++ {
		if got := DefaultVariant(level); got != VariantScalar {
			t.Errorf("DefaultVariant(%d) = %q with SIMD disabled, want scalar", level, got)
		}
	}
}
