// Sensitivity analysis for the machine model: since Figures 12/13 rest on
// calibrated constants (DESIGN.md §4), the sweep API quantifies how much
// each constant matters, so readers can judge the model's robustness
// rather than trust a single parameterization.
package smp

import (
	"fmt"
	"io"
)

// SweepPoint is one model evaluation of a sensitivity sweep.
type SweepPoint struct {
	// Label names the varied parameter value, e.g. "Beta=0.006".
	Label string
	// SpeedupAtMax is the predicted speedup at Machine.MaxProcs.
	SpeedupAtMax float64
}

// sweepBeta evaluates the speedup endpoint under scaled bus-contention
// coefficients (factors scale the machine's Beta).
func (m Machine) sweepBeta(p Profile, tr Traits, factors []float64) []SweepPoint {
	var out []SweepPoint
	for _, f := range factors {
		mm := m
		mm.Beta = m.Beta * f
		s := mm.Speedups(p, tr)
		out = append(out, SweepPoint{
			Label:        fmt.Sprintf("Beta=%.4f", mm.Beta),
			SpeedupAtMax: s[len(s)-1],
		})
	}
	return out
}

// sweepForkJoin evaluates the speedup endpoint under scaled fork/join
// costs.
func (m Machine) sweepForkJoin(p Profile, tr Traits, factors []float64) []SweepPoint {
	var out []SweepPoint
	for _, f := range factors {
		t := tr
		t.ForkJoin = tr.ForkJoin * f
		s := m.Speedups(p, t)
		out = append(out, SweepPoint{
			Label:        fmt.Sprintf("ForkJoin=%.1fus", t.ForkJoin*1e6),
			SpeedupAtMax: s[len(s)-1],
		})
	}
	return out
}

// sweepAlloc evaluates the speedup endpoint under scaled memory-management
// costs (both the invariant and the size-proportional components).
func (m Machine) sweepAlloc(p Profile, tr Traits, factors []float64) []SweepPoint {
	var out []SweepPoint
	for _, f := range factors {
		t := tr
		t.AllocCost = tr.AllocCost * f
		t.AllocFrac = tr.AllocFrac * f
		s := m.Speedups(p, t)
		out = append(out, SweepPoint{
			Label:        fmt.Sprintf("Alloc x%.2g", f),
			SpeedupAtMax: s[len(s)-1],
		})
	}
	return out
}

// WriteSensitivity runs the three sweeps over half/nominal/double factors
// and renders them as a table — the robustness appendix of the Figure-12
// reproduction.
func (m Machine) WriteSensitivity(w io.Writer, p Profile, tr Traits) {
	factors := []float64{0.5, 1, 2}
	fmt.Fprintf(w, "model sensitivity (%s on %s class %c): speedup at P=%d\n",
		tr.Name, p.Impl, p.Class.Name, m.MaxProcs)
	rows := map[string][]SweepPoint{
		"bus contention": m.sweepBeta(p, tr, factors),
		"fork/join":      m.sweepForkJoin(p, tr, factors),
		"memory manager": m.sweepAlloc(p, tr, factors),
	}
	for _, name := range []string{"bus contention", "fork/join", "memory manager"} {
		fmt.Fprintf(w, "  %-15s", name)
		for _, pt := range rows[name] {
			fmt.Fprintf(w, "  %-18s %5.2f", pt.Label, pt.SpeedupAtMax)
		}
		fmt.Fprintln(w)
	}
}
