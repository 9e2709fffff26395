package perfstat

import (
	"math"
	"testing"
)

func TestMeanMedian(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %v, want 0", got)
	}
	xs := []float64{3, 1, 2}
	if got := Mean(xs); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
	if got := Median(xs); got != 2 {
		t.Errorf("Median = %v, want 2", got)
	}
	// Even count interpolates.
	if got := Median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("Median = %v, want 2.5", got)
	}
	// Median must not reorder the caller's slice.
	if xs[0] != 3 {
		t.Errorf("Median mutated its input: %v", xs)
	}
}

func TestRejectOutliers(t *testing.T) {
	// A planted far outlier is dropped; the bulk survives.
	xs := []float64{10, 10.1, 9.9, 10.2, 9.8, 10, 100}
	kept := RejectOutliers(xs)
	if len(kept) != 6 {
		t.Fatalf("kept %d samples, want 6: %v", len(kept), kept)
	}
	for _, x := range kept {
		if x > 50 {
			t.Errorf("outlier %v survived", x)
		}
	}
	// Fewer than 4 samples: untouched.
	small := []float64{1, 100}
	if got := RejectOutliers(small); len(got) != 2 {
		t.Errorf("small slice filtered: %v", got)
	}
	// All-identical samples: all survive the zero-width fences.
	same := []float64{5, 5, 5, 5, 5}
	if got := RejectOutliers(same); len(got) != 5 {
		t.Errorf("identical samples filtered: %v", got)
	}
}

func TestBootstrapCI(t *testing.T) {
	xs := []float64{9.8, 9.9, 10, 10, 10.1, 10.2, 10.1, 9.9, 10, 10}
	lo, hi := BootstrapCI(xs, 0.95, 500)
	if lo > hi {
		t.Fatalf("inverted interval [%v, %v]", lo, hi)
	}
	med := Median(xs)
	if med < lo || med > hi {
		t.Errorf("median %v outside CI [%v, %v]", med, lo, hi)
	}
	// Deterministic seed: repeated calls agree exactly.
	lo2, hi2 := BootstrapCI(xs, 0.95, 500)
	if lo != lo2 || hi != hi2 {
		t.Errorf("bootstrap not reproducible: [%v,%v] vs [%v,%v]", lo, hi, lo2, hi2)
	}
	// Single sample degenerates to a point.
	lo, hi = BootstrapCI([]float64{7}, 0.95, 100)
	if lo != 7 || hi != 7 {
		t.Errorf("single-sample CI [%v, %v], want [7, 7]", lo, hi)
	}
}

func TestMannWhitney(t *testing.T) {
	// Identical samples: every observation tied, p = 1.
	a := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	if _, p := mannWhitney(a, a); p != 1 {
		t.Errorf("all-ties p = %v, want 1", p)
	}
	// Fully separated samples: decisive.
	lo := []float64{1, 1.1, 0.9, 1.05, 0.95, 1.02, 0.98, 1.01, 0.99, 1}
	hi := []float64{2, 2.1, 1.9, 2.05, 1.95, 2.02, 1.98, 2.01, 1.99, 2}
	if _, p := mannWhitney(lo, hi); p >= 0.001 {
		t.Errorf("separated samples p = %v, want < 0.001", p)
	}
	// Symmetry: order of arguments must not matter.
	_, p1 := mannWhitney(lo, hi)
	_, p2 := mannWhitney(hi, lo)
	if math.Abs(p1-p2) > 1e-12 {
		t.Errorf("asymmetric p: %v vs %v", p1, p2)
	}
	// Empty side: no evidence.
	if _, p := mannWhitney(nil, hi); p != 1 {
		t.Errorf("empty-side p = %v, want 1", p)
	}
	// Heavily overlapping samples: not significant.
	b := []float64{1, 1.2, 0.8, 1.1, 0.9, 1.05, 0.95, 1}
	c := []float64{1.02, 1.18, 0.82, 1.08, 0.92, 1.03, 0.97, 1.01}
	if _, p := mannWhitney(b, c); p < 0.05 {
		t.Errorf("overlapping samples p = %v, want >= 0.05", p)
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{1, 1.01, 0.99, 1.02, 0.98, 1, 1.01, 0.99, 1, 1.02}
	th := Thresholds{Alpha: 0.01, MinRel: 0.10}

	if got := Compare(base, base, th); got.Verdict != Indistinguishable {
		t.Errorf("self-compare verdict = %v, want indistinguishable", got.Verdict)
	}
	if got := Compare(base, scale(base, 1.5), th); got.Verdict != Slower {
		t.Errorf("1.5x slowdown verdict = %v (p=%v delta=%v), want slower", got.Verdict, got.P, got.Delta)
	}
	if got := Compare(base, scale(base, 0.5), th); got.Verdict != Faster {
		t.Errorf("2x speedup verdict = %v, want faster", got.Verdict)
	}
	// A significant but sub-threshold shift stays indistinguishable.
	if got := Compare(base, scale(base, 1.05), th); got.Verdict != Indistinguishable {
		t.Errorf("5%% shift with 10%% threshold verdict = %v, want indistinguishable", got.Verdict)
	}
	// The absolute floor suppresses microsecond-scale noise.
	tiny := scale(base, 1e-6)
	thAbs := Thresholds{Alpha: 0.01, MinRel: 0.10, MinAbs: 50e-6}
	if got := Compare(tiny, scale(tiny, 2), thAbs); got.Verdict != Indistinguishable {
		t.Errorf("sub-floor shift verdict = %v, want indistinguishable", got.Verdict)
	}
	// Delta reports the relative median change.
	got := Compare(base, scale(base, 1.5), th)
	if math.Abs(got.Delta-0.5) > 0.05 {
		t.Errorf("Delta = %v, want ~0.5", got.Delta)
	}
}
