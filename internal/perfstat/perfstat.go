// Package perfstat is the statistical engine of the performance
// regression lab: Tukey-fence outlier rejection, median/mean summaries,
// bootstrap confidence intervals for the median, and Mann–Whitney U
// comparison verdicts (faster / slower / indistinguishable at a configurable
// significance level and minimum effect size).
//
// The design follows the benchmarking methodology literature referenced
// in PAPERS.md: single best-of-N numbers (the NPB reporting convention
// used by harness.RunFig11) are fine for tables, but any *claim* that one
// build is faster or slower than another needs repeated samples and a
// rank-based test that does not assume normal timing noise. Timing
// distributions are right-skewed (interrupts, frequency transitions, GC),
// which is why the package prefers medians over means and the
// distribution-free Mann–Whitney U test over Student's t.
package perfstat

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// CalibrationIters is the size of the fixed calibration workload: a
// dependent multiply-add chain long enough (a few ms) to ride out
// scheduler jitter but cheap enough to run before every snapshot.
const CalibrationIters = 8 << 20

// spinSink defeats dead-code elimination of the calibration loop.
var spinSink float64

// Spin executes the fixed calibration workload — CalibrationIters
// dependent floating-point multiply-adds — and returns its wall time in
// seconds. The chain is latency-bound, so its time tracks the effective
// CPU speed the process is getting (frequency scaling, hypervisor steal,
// co-tenant pressure) and is untouched by changes to the benchmark code.
func Spin() float64 {
	start := time.Now()
	x := 1.0
	for i := 0; i < CalibrationIters; i++ {
		x = x*1.0000000001 + 1e-12
	}
	spinSink = x
	return time.Since(start).Seconds()
}

// Calibrate returns a robust estimate (outlier-rejected median of 9
// runs) of the calibration workload's wall time on this host right now.
// Snapshots store it so comparisons can normalize away host-speed
// differences: the same tree measured on a machine running half as fast
// would otherwise read as a 2x regression of every row.
func Calibrate() float64 {
	samples := make([]float64, 9)
	for i := range samples {
		samples[i] = Spin()
	}
	return Median(RejectOutliers(samples))
}

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the sample median (0 for an empty slice).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// Quantile returns the interpolated q-quantile (0 ≤ q ≤ 1) of xs —
// p50/p99 latency reporting for the saturation benchmarks (cmd/mgload).
// It returns 0 for an empty slice and does not modify xs.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

// quantileSorted interpolates the q-quantile of an ascending slice.
func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	if n == 1 {
		return s[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// RejectOutliers returns the samples inside the Tukey fences
// [Q1 − 1.5·IQR, Q3 + 1.5·IQR]. Slices with fewer than 4 samples are
// returned unchanged (quartiles are meaningless), as are slices whose
// IQR is zero beyond the fence test (identical samples all survive).
func RejectOutliers(xs []float64) []float64 {
	if len(xs) < 4 {
		return xs
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1 := quantileSorted(s, 0.25)
	q3 := quantileSorted(s, 0.75)
	iqr := q3 - q1
	lo, hi := q1-1.5*iqr, q3+1.5*iqr
	kept := make([]float64, 0, len(xs))
	for _, x := range xs {
		if x >= lo && x <= hi {
			kept = append(kept, x)
		}
	}
	if len(kept) == 0 {
		return xs // degenerate fences; keep the data
	}
	return kept
}

// BootstrapCI estimates a confidence interval for the median by
// percentile bootstrap with iters resamples (default 1000 when iters
// <= 0). conf is the coverage, e.g. 0.95. The resampling RNG is seeded
// deterministically so snapshots are reproducible run-to-run.
func BootstrapCI(xs []float64, conf float64, iters int) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	if len(xs) == 1 {
		return xs[0], xs[0]
	}
	if iters <= 0 {
		iters = 1000
	}
	if conf <= 0 || conf >= 1 {
		conf = 0.95
	}
	rng := rand.New(rand.NewSource(0x6d67)) // "mg"; fixed for reproducibility
	meds := make([]float64, iters)
	resample := make([]float64, len(xs))
	for i := range meds {
		for j := range resample {
			resample[j] = xs[rng.Intn(len(xs))]
		}
		sort.Float64s(resample)
		meds[i] = quantileSorted(resample, 0.5)
	}
	sort.Float64s(meds)
	tail := (1 - conf) / 2
	return quantileSorted(meds, tail), quantileSorted(meds, 1-tail)
}

// mannWhitney runs the two-sided Mann–Whitney U test on two independent
// samples, returning the U statistic (the smaller of U1/U2) and the
// p-value under the tie-corrected normal approximation with continuity
// correction. Degenerate inputs (an empty side, or all observations
// tied) return p = 1: no evidence of a difference.
func mannWhitney(a, b []float64) (u, p float64) {
	n1, n2 := float64(len(a)), float64(len(b))
	if n1 == 0 || n2 == 0 {
		return 0, 1
	}
	type obs struct {
		v    float64
		inA  bool
		rank float64
	}
	all := make([]obs, 0, len(a)+len(b))
	for _, v := range a {
		all = append(all, obs{v: v, inA: true})
	}
	for _, v := range b {
		all = append(all, obs{v: v})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Assign mid-ranks to ties and accumulate the tie correction Σ(t³−t).
	tieSum := 0.0
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			all[k].rank = mid
		}
		t := float64(j - i)
		tieSum += t*t*t - t
		i = j
	}

	r1 := 0.0
	for _, o := range all {
		if o.inA {
			r1 += o.rank
		}
	}
	u1 := r1 - n1*(n1+1)/2
	u2 := n1*n2 - u1
	u = math.Min(u1, u2)

	n := n1 + n2
	mean := n1 * n2 / 2
	variance := n1 * n2 / 12 * ((n + 1) - tieSum/(n*(n-1)))
	if variance <= 0 {
		return u, 1 // every observation tied
	}
	z := (u - mean + 0.5) / math.Sqrt(variance) // continuity-corrected; z <= ~0
	if z > 0 {
		z = 0
	}
	p = math.Erfc(-z / math.Sqrt2) // two-sided: 2·Φ(z) for z <= 0
	if p > 1 {
		p = 1
	}
	return u, p
}

// Verdict classifies a base-vs-current comparison.
type Verdict int

const (
	// Indistinguishable: no statistically significant difference beyond
	// the minimum effect size.
	Indistinguishable Verdict = iota
	// Faster: current is significantly faster than base.
	Faster
	// Slower: current is significantly slower than base — a regression.
	Slower
)

// String renders the verdict as the word the comparison table prints.
func (v Verdict) String() string {
	switch v {
	case Faster:
		return "faster"
	case Slower:
		return "slower"
	default:
		return "indistinguishable"
	}
}

// Thresholds configures when a measured difference counts.
type Thresholds struct {
	// Alpha is the significance level of the Mann–Whitney test
	// (default 0.01).
	Alpha float64
	// MinRel is the minimum relative median change, e.g. 0.10 for 10%.
	// Differences that are statistically significant but smaller than
	// this are reported indistinguishable — with enough samples the test
	// detects arbitrarily small systematic shifts (thermal drift, ASLR
	// layout), which are not regressions anyone should gate on.
	MinRel float64
	// MinAbs is the minimum absolute median change in seconds (default
	// 0: disabled). Rows whose medians are microseconds apart pass any
	// relative threshold on scheduler noise alone; a caller comparing
	// per-kernel rows sets a floor here.
	MinAbs float64
}

func (t Thresholds) withDefaults() Thresholds {
	if t.Alpha <= 0 || t.Alpha >= 1 {
		t.Alpha = 0.01
	}
	if t.MinRel < 0 {
		t.MinRel = 0
	}
	if t.MinAbs < 0 {
		t.MinAbs = 0
	}
	return t
}

// Comparison is the result of comparing two sample sets.
type Comparison struct {
	// BaseMedian and CurMedian are the outlier-rejected medians (seconds).
	BaseMedian, CurMedian float64
	// Delta is the relative median change (CurMedian−BaseMedian)/BaseMedian.
	Delta float64
	// P is the two-sided Mann–Whitney p-value.
	P float64
	// Verdict is the classification under the thresholds.
	Verdict Verdict
}

// Compare classifies current against base: outlier rejection on both
// sides, Mann–Whitney on the cleaned samples, then the verdict — Slower
// or Faster only when the difference is simultaneously significant
// (p < Alpha), large enough relatively (|Delta| >= MinRel) and large
// enough absolutely (|CurMedian−BaseMedian| >= MinAbs).
func Compare(base, cur []float64, th Thresholds) Comparison {
	th = th.withDefaults()
	b := RejectOutliers(base)
	c := RejectOutliers(cur)
	bm, cm := Median(b), Median(c)
	_, p := mannWhitney(b, c)
	delta := 0.0
	if bm > 0 {
		delta = (cm - bm) / bm
	}
	out := Comparison{BaseMedian: bm, CurMedian: cm, Delta: delta, P: p, Verdict: Indistinguishable}
	if p < th.Alpha && math.Abs(delta) >= th.MinRel && math.Abs(cm-bm) >= th.MinAbs {
		if delta > 0 {
			out.Verdict = Slower
		} else if delta < 0 {
			out.Verdict = Faster
		}
	}
	return out
}
