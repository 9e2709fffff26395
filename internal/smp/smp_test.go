package smp

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/nas"
)

// mgLikeProfile builds a synthetic MG work profile: lt levels, per-level
// kernel calls whose cost shrinks by 8× per level down (the 3-D volume
// ratio), scaled so the finest-level kernel costs topSeconds.
func mgLikeProfile(impl string, class nas.Class, topSeconds float64) Profile {
	lt := class.LT()
	p := Profile{Impl: impl, Class: class}
	// Kernel weights approximating the measured profiles: the stencil
	// sweeps resid/psinv dominate; restriction touches 1/8 of the points
	// and prolongation is a light gather.
	weights := map[string]float64{"resid": 1.0, "psinv": 0.95, "rprj3": 0.14, "interp": 0.22}
	for level := 1; level <= lt; level++ {
		scale := topSeconds / math.Pow(8, float64(lt-level))
		for name, w := range weights {
			calls := class.Iter
			if name == "resid" && level == lt {
				calls = 2 * class.Iter // up-cycle resid + EvalResid
			}
			p.Regions = append(p.Regions, Region{
				RegionKey: RegionKey{Name: name, Level: level},
				Calls:     calls,
				Seconds:   scale * w * float64(calls),
			})
		}
	}
	return p
}

func at10(m Machine, p Profile, tr Traits) float64 {
	s := m.Speedups(p, tr)
	return s[len(s)-1]
}

func TestPredictOneProcessorIsSerial(t *testing.T) {
	m := Enterprise4000()
	p := mgLikeProfile("x", nas.ClassW, 2e-3)
	for _, tr := range []Traits{SAC, F77Auto, OpenMP} {
		if got, want := m.Predict(p, tr, 1), p.SerialSeconds(); math.Abs(got-want) > 1e-12 {
			t.Errorf("%s: Predict(1) = %v, want serial %v", tr.Name, got, want)
		}
	}
}

func TestPredictPanicsOnBadProcs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Predict(0) did not panic")
		}
	}()
	Enterprise4000().Predict(Profile{}, SAC, 0)
}

// Figure 12's qualitative content: at ten processors OpenMP scales best,
// SAC second, auto-parallelized Fortran worst; class A scales better than
// class W for everyone; and SAC gains the most from W→A.
func TestFigure12Shape(t *testing.T) {
	m := Enterprise4000()
	// Per-kernel top-level costs approximating the measured profiles
	// (f77 fastest, SAC slowest per kernel at class W granularity).
	mk := func(class nas.Class, top float64) map[string]Profile {
		return map[string]Profile{
			"f77": mgLikeProfile("f77", class, top),
			"sac": mgLikeProfile("sac", class, top*1.55),
			"omp": mgLikeProfile("omp", class, top*1.35),
		}
	}
	w := mk(nas.ClassW, 1.5e-3)
	a := mk(nas.ClassA, 1.5e-3*64*4/40) // A kernel is 64× bigger, 4 vs 40 iters

	sacW, sacA := at10(m, w["sac"], SAC), at10(m, a["sac"], SAC)
	f77W, f77A := at10(m, w["f77"], F77Auto), at10(m, a["f77"], F77Auto)
	ompW, ompA := at10(m, w["omp"], OpenMP), at10(m, a["omp"], OpenMP)

	if !(ompW > sacW && sacW > f77W) {
		t.Fatalf("class W ordering wrong: omp %.2f sac %.2f f77 %.2f", ompW, sacW, f77W)
	}
	if !(ompA > sacA && sacA > f77A) {
		t.Fatalf("class A ordering wrong: omp %.2f sac %.2f f77 %.2f", ompA, sacA, f77A)
	}
	if !(sacA > sacW && f77A > f77W && ompA > ompW) {
		t.Fatal("class A does not scale better than class W")
	}
	// SAC benefits the most from the larger problem (paper §5 last ¶).
	sacGain := sacA / sacW
	if sacGain <= ompA/ompW || sacGain <= f77A/f77W {
		t.Fatalf("SAC W→A gain %.2f not the largest (omp %.2f, f77 %.2f)",
			sacGain, ompA/ompW, f77A/f77W)
	}
	// Calibration bands around the paper's reported endpoints.
	checks := []struct {
		name      string
		got, want float64
	}{
		{"SAC W", sacW, 5.3}, {"SAC A", sacA, 7.6},
		{"f77 W", f77W, 2.8}, {"f77 A", f77A, 4.0},
		{"omp W", ompW, 8.0}, {"omp A", ompA, 9.0},
	}
	for _, c := range checks {
		if c.got < c.want*0.7 || c.got > c.want*1.3 {
			t.Errorf("%s speedup@10 = %.2f, outside ±30%% of the paper's %.1f", c.name, c.got, c.want)
		}
	}
}

// Speedup curves are monotone in P for MG-like profiles.
func TestSpeedupsMonotone(t *testing.T) {
	m := Enterprise4000()
	p := mgLikeProfile("x", nas.ClassA, 0.2)
	for _, tr := range []Traits{SAC, F77Auto, OpenMP} {
		s := m.Speedups(p, tr)
		if len(s) != m.MaxProcs {
			t.Fatalf("%s: %d entries", tr.Name, len(s))
		}
		if s[0] != 1 {
			t.Fatalf("%s: S(1) = %v", tr.Name, s[0])
		}
		for i := 1; i < len(s); i++ {
			if s[i] < s[i-1]-1e-9 {
				t.Fatalf("%s: speedup not monotone at P=%d: %v", tr.Name, i+1, s)
			}
		}
	}
}

// The adaptive (SAC) runtime never loses to its own serial execution.
func TestAdaptiveNeverSlowsDown(t *testing.T) {
	m := Enterprise4000()
	// A profile of only tiny coarse-level kernels.
	p := Profile{Impl: "tiny", Class: nas.ClassS}
	for level := 1; level <= 3; level++ {
		p.Regions = append(p.Regions, Region{
			RegionKey: RegionKey{Name: "resid", Level: level},
			Calls:     100, Seconds: 100 * 2e-7,
		})
	}
	for procs := 1; procs <= 10; procs++ {
		if tp := m.Predict(p, SAC, procs); tp > p.SerialSeconds()*(1+1e-9) {
			t.Fatalf("adaptive SAC slower than serial at P=%d: %v > %v",
				procs, tp, p.SerialSeconds())
		}
	}
	// A non-adaptive runtime pays fork/join on every tiny loop and loses.
	if tp := m.Predict(p, OpenMP, 10); tp <= p.SerialSeconds() {
		t.Fatalf("non-adaptive runtime shows no overhead on tiny loops: %v vs %v",
			tp, p.SerialSeconds())
	}
}

// Plane granularity: a level-1 grid has two interior planes, so no more
// than 2 chunks regardless of processors.
func TestPlaneGranularityLimit(t *testing.T) {
	m := Machine{MaxProcs: 10, Beta: 0}
	p := Profile{Impl: "coarse", Class: nas.ClassS, Regions: []Region{
		{RegionKey: RegionKey{Name: "resid", Level: 1}, Calls: 1, Seconds: 1.0},
	}}
	tr := Traits{Name: "ideal", Parallel: map[string]bool{"resid": true}}
	if got := m.Predict(p, tr, 10); got < 0.5-1e-9 {
		t.Fatalf("level-1 region exceeded 2-way parallelism: T = %v", got)
	}
	if got := at10(m, p, tr); got > 2+1e-9 {
		t.Fatalf("level-1 speedup %v > 2", got)
	}
}

// Sequential regions are untouched by P (Amdahl).
func TestSequentialRegionsUnaffected(t *testing.T) {
	m := Enterprise4000()
	p := Profile{Impl: "x", Class: nas.ClassS, Regions: []Region{
		{RegionKey: RegionKey{Name: "rprj3", Level: 8}, Calls: 1, Seconds: 1.0},
		{RegionKey: RegionKey{Name: "resid", Level: 8}, Calls: 1, Seconds: 1.0},
	}}
	// F77Auto parallelizes resid but not rprj3.
	t10 := m.Predict(p, F77Auto, 10)
	if t10 < 1.0 {
		t.Fatalf("sequential rprj3 share disappeared: T(10) = %v", t10)
	}
	if s := 2.0 / t10; s > 2.0 {
		t.Fatalf("Amdahl bound violated: speedup %v", s)
	}
}

func TestCollectorAggregates(t *testing.T) {
	c := NewCollector("sac", nas.ClassS)
	c.Probe("resid", 5, 2*time.Millisecond)
	c.Probe("resid", 5, 3*time.Millisecond)
	c.Probe("smooth", 4, 1*time.Millisecond)
	p := c.Profile()
	if p.Impl != "sac" || p.Class.Name != 'S' {
		t.Fatal("labels lost")
	}
	if len(p.Regions) != 2 {
		t.Fatalf("regions = %d, want 2", len(p.Regions))
	}
	// Sorted by level: smooth@4 first.
	if p.Regions[0].Name != "smooth" || p.Regions[0].Calls != 1 {
		t.Fatalf("region 0 = %+v", p.Regions[0])
	}
	if p.Regions[1].Calls != 2 || math.Abs(p.Regions[1].Seconds-5e-3) > 1e-12 {
		t.Fatalf("region 1 = %+v", p.Regions[1])
	}
	if math.Abs(p.SerialSeconds()-6e-3) > 1e-12 {
		t.Fatalf("serial = %v", p.SerialSeconds())
	}
}

func TestProfileString(t *testing.T) {
	p := mgLikeProfile("sac", nas.ClassW, 1e-3)
	s := p.String()
	for _, frag := range []string{"profile sac class W", "resid", "L6"} {
		if !strings.Contains(s, frag) {
			t.Errorf("Profile.String missing %q:\n%s", frag, s)
		}
	}
}

// The alloc share is capped at half a call even for absurd trait values,
// keeping predictions finite and monotone.
func TestAllocCap(t *testing.T) {
	m := Machine{MaxProcs: 4, Beta: 0}
	p := Profile{Impl: "x", Class: nas.ClassS, Regions: []Region{
		{RegionKey: RegionKey{Name: "resid", Level: 8}, Calls: 1, Seconds: 1e-6},
	}}
	tr := Traits{Name: "greedy", AllocPerCall: 100, AllocCost: 1, // 100s nominal alloc
		Parallel: map[string]bool{"resid": true}}
	got := m.Predict(p, tr, 4)
	if got > 1e-6 {
		t.Fatalf("alloc cap failed: T = %v", got)
	}
}

// Sensitivity sweeps: each overhead parameter moves the endpoint in the
// expected direction, monotonically.
func TestSweepsMonotone(t *testing.T) {
	m := Enterprise4000()
	p := mgLikeProfile("sac", nas.ClassW, 1.5e-3)
	factors := []float64{0.25, 0.5, 1, 2, 4}

	beta := m.sweepBeta(p, SAC, factors)
	fj := m.sweepForkJoin(p, SAC, factors)
	alloc := m.sweepAlloc(p, SAC, factors)
	for name, pts := range map[string][]SweepPoint{"beta": beta, "forkjoin": fj, "alloc": alloc} {
		if len(pts) != len(factors) {
			t.Fatalf("%s: %d points", name, len(pts))
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].SpeedupAtMax > pts[i-1].SpeedupAtMax+1e-9 {
				t.Fatalf("%s: speedup not monotone in overhead: %+v", name, pts)
			}
		}
		if pts[0].SpeedupAtMax <= pts[len(pts)-1].SpeedupAtMax {
			t.Fatalf("%s: overhead had no effect: %+v", name, pts)
		}
	}
}

func TestWriteSensitivity(t *testing.T) {
	var buf strings.Builder
	m := Enterprise4000()
	p := mgLikeProfile("sac", nas.ClassW, 1.5e-3)
	m.WriteSensitivity(&buf, p, SAC)
	out := buf.String()
	for _, frag := range []string{"model sensitivity", "bus contention", "fork/join", "memory manager"} {
		if !strings.Contains(out, frag) {
			t.Errorf("sensitivity output missing %q:\n%s", frag, out)
		}
	}
}
