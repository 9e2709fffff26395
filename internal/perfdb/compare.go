// Pairwise snapshot comparison: per-row Mann–Whitney verdicts plus an
// attribution pass that explains a whole-benchmark ("solve" row) delta
// in terms of the (kernel, level) rows that moved. The human-readable
// table is what cmd/mgbench prints and what the CI perf job uploads.
package perfdb

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/perfstat"
)

// TotalKernel is the whole-benchmark pseudo-kernel row name (matching
// metrics.TotalKernel); attribution explains deltas of these rows.
const TotalKernel = "solve"

// RowResult is the verdict on one row present in both snapshots.
type RowResult struct {
	Key Key
	perfstat.Comparison
	// ContribSec is the signed median change in seconds — the row's
	// contribution to its benchmark's end-to-end delta.
	ContribSec float64
}

// Comparison is the full base-vs-current report.
type Comparison struct {
	Thresholds perfstat.Thresholds
	Rows       []RowResult
	// OnlyBase and OnlyCur list rows present on one side only (a kernel
	// appeared or disappeared — itself worth noticing).
	OnlyBase, OnlyCur []Key
	// HostMismatch reports that the snapshots come from different
	// hardware or Go versions, which weakens absolute-time verdicts.
	HostMismatch bool
	// SpeedRatio is base.Calibration/cur.Calibration — how much faster
	// (>1) or slower (<1) the current host ran the fixed calibration
	// workload. Current samples are multiplied by it before testing, so
	// verdicts reflect code changes, not host-speed drift. 1 when either
	// snapshot is uncalibrated.
	SpeedRatio float64
}

// hostComparable ignores the hostname: two runners of the same shape
// are commensurable enough to gate on.
func hostComparable(a, b Host) bool {
	return a.OS == b.OS && a.Arch == b.Arch && a.CPUs == b.CPUs && a.GoVersion == b.GoVersion
}

// normalize rescales samples by the calibration speed ratio (a ratio of
// 1 returns the slice unchanged).
func normalize(samples []float64, ratio float64) []float64 {
	if ratio == 1 {
		return samples
	}
	out := make([]float64, len(samples))
	for i, v := range samples {
		out[i] = v * ratio
	}
	return out
}

// Compare evaluates cur against base row by row. th zero-values pick the
// package defaults (alpha 0.01; MinAbs additionally floors per-kernel
// noise at 20µs when unset so microsecond rows cannot gate a build).
func Compare(base, cur *Snapshot, th perfstat.Thresholds) *Comparison {
	if th.MinAbs == 0 {
		th.MinAbs = 20e-6
	}
	out := &Comparison{Thresholds: th, HostMismatch: !hostComparable(base.Host, cur.Host), SpeedRatio: 1}
	if base.Calibration > 0 && cur.Calibration > 0 {
		out.SpeedRatio = base.Calibration / cur.Calibration
	}
	baseRows := make(map[Key]Row, len(base.Rows))
	for _, r := range base.Rows {
		baseRows[r.Key()] = r
	}
	curSeen := make(map[Key]bool, len(cur.Rows))
	for _, c := range cur.Rows {
		key := c.Key()
		curSeen[key] = true
		b, ok := baseRows[key]
		if !ok {
			out.OnlyCur = append(out.OnlyCur, key)
			continue
		}
		// Per-row calibration (interleaved with the row's measurement
		// block) beats the snapshot-level ratio: host speed can drift
		// between blocks of one run.
		ratio := out.SpeedRatio
		if b.Calibration > 0 && c.Calibration > 0 {
			ratio = b.Calibration / c.Calibration
		}
		cmp := perfstat.Compare(b.Samples, normalize(c.Samples, ratio), th)
		out.Rows = append(out.Rows, RowResult{
			Key:        key,
			Comparison: cmp,
			ContribSec: cmp.CurMedian - cmp.BaseMedian,
		})
	}
	for _, b := range base.Rows {
		if !curSeen[b.Key()] {
			out.OnlyBase = append(out.OnlyBase, b.Key())
		}
	}
	sort.Slice(out.Rows, func(i, j int) bool { return out.Rows[i].Key.less(out.Rows[j].Key) })
	return out
}

// ratioFold renders a speed ratio as an "N times" factor >= 1.
func ratioFold(r float64) float64 {
	if r < 1 && r > 0 {
		return 1 / r
	}
	return r
}

// regressions returns the rows judged Slower, ordered by their absolute
// contribution (largest first) — the attribution order.
func (c *Comparison) regressions() []RowResult {
	var out []RowResult
	for _, r := range c.Rows {
		if r.Verdict == perfstat.Slower {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return math.Abs(out[i].ContribSec) > math.Abs(out[j].ContribSec)
	})
	return out
}

// HasRegression reports whether any row regressed — the CI gate.
func (c *Comparison) HasRegression() bool {
	for _, r := range c.Rows {
		if r.Verdict == perfstat.Slower {
			return true
		}
	}
	return false
}

// attribute explains the (impl, class) benchmark's end-to-end delta: it
// returns the non-"solve" rows of that benchmark ordered by absolute
// median change, largest first — "which kernels moved the total".
func (c *Comparison) attribute(impl, class string) []RowResult {
	var out []RowResult
	for _, r := range c.Rows {
		if r.Key.Impl == impl && r.Key.Class == class && r.Key.Kernel != TotalKernel {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return math.Abs(out[i].ContribSec) > math.Abs(out[j].ContribSec)
	})
	return out
}

// WriteTable renders the full comparison: one line per row (medians,
// relative delta, p-value, verdict), attribution blocks for every
// benchmark whose "solve" row moved significantly, and the final gate
// line ("no significant regressions" or "REGRESSION").
func (c *Comparison) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "Benchmark comparison (alpha %.3g, min relative delta %.1f%%, min absolute delta %.3gms)\n",
		c.Thresholds.Alpha, c.Thresholds.MinRel*100, c.Thresholds.MinAbs*1e3)
	if c.HostMismatch {
		fmt.Fprintf(w, "WARNING: snapshots were taken on different host configurations; absolute\n")
		fmt.Fprintf(w, "times are not commensurable and verdicts below may reflect the hardware.\n")
	}
	if c.SpeedRatio != 1 {
		fmt.Fprintf(w, "calibration: current host ran the reference workload %.2fx %s than the\n",
			ratioFold(c.SpeedRatio), map[bool]string{true: "faster", false: "slower"}[c.SpeedRatio > 1])
		fmt.Fprintf(w, "baseline host; current times are speed-normalized (per row where the\n")
		fmt.Fprintf(w, "rows carry their own calibration, else by the snapshot ratio %.4f).\n", c.SpeedRatio)
	}
	fmt.Fprintf(w, "%-34s %12s %12s %9s %9s  %s\n",
		"row", "base ms", "current ms", "delta", "p", "verdict")
	for _, r := range c.Rows {
		fmt.Fprintf(w, "%-34s %12.4f %12.4f %+8.1f%% %9.4f  %s\n",
			r.Key.String(), r.BaseMedian*1e3, r.CurMedian*1e3, r.Delta*100, r.P, r.Verdict)
	}
	for _, key := range c.OnlyBase {
		fmt.Fprintf(w, "%-34s only in baseline (kernel disappeared)\n", key.String())
	}
	for _, key := range c.OnlyCur {
		fmt.Fprintf(w, "%-34s only in current (new kernel, no baseline)\n", key.String())
	}

	// Attribution: explain every benchmark whose end-to-end row moved.
	for _, r := range c.Rows {
		if r.Key.Kernel != TotalKernel || r.Verdict == perfstat.Indistinguishable {
			continue
		}
		fmt.Fprintf(w, "\n%s/%s end-to-end %s by %+.1f%% (%+.3fms); largest movers:\n",
			r.Key.Impl, r.Key.Class, r.Verdict, r.Delta*100, r.ContribSec*1e3)
		total := r.ContribSec
		for i, k := range c.attribute(r.Key.Impl, r.Key.Class) {
			if i >= 5 || k.ContribSec == 0 {
				break
			}
			share := 0.0
			if total != 0 {
				share = k.ContribSec / total * 100
			}
			fmt.Fprintf(w, "  %-32s %+10.4fms  %+6.1f%% of the total delta (%s)\n",
				fmt.Sprintf("%s@%d", k.Key.Kernel, k.Key.Level), k.ContribSec*1e3, share, k.Verdict)
		}
	}

	if regs := c.regressions(); len(regs) > 0 {
		fmt.Fprintf(w, "\nREGRESSION: %d row(s) significantly slower:\n", len(regs))
		for _, r := range regs {
			fmt.Fprintf(w, "  %s: %+.1f%% (p=%.4f, %+.3fms)\n",
				r.Key.String(), r.Delta*100, r.P, r.ContribSec*1e3)
		}
	} else {
		fmt.Fprintf(w, "\nno significant regressions\n")
	}
}
