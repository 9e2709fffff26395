// Package smp simulates the shared-memory multiprocessor of the paper's
// parallel experiments — a 12-processor SUN Ultra Enterprise 4000 — for
// reproducing Figures 12 and 13 on hardware that cannot run ten real
// processors (the reproduction host has two vCPUs; see DESIGN.md §4,
// substitution 1).
//
// The simulator is a deterministic cost model. Its input is a Profile:
// real, measured per-kernel serial wall-clock times of one implementation
// (captured through the nas.Probe hook on an actual benchmark run). Its
// output is the predicted execution time at P processors:
//
//	T(P) = Σ_regions  Calls × t_call(P)
//
//	t_call(P) = t_serial                      if the region is sequential
//	          = alloc + work/chunks(P) × bw(P) + forkJoin   otherwise
//
// where
//
//   - alloc is the memory-management share of the call — SAC's
//     reference-counting overhead, which the paper stresses is invariant
//     in grid size and therefore dominates small grids;
//   - work/chunks(P) is the parallelizable share divided over
//     min(P, planes) — outer-plane decomposition limits parallelism on
//     coarse V-cycle grids to 2^level chunks;
//   - bw(P) = 1 + β(P−1) models memory-bus contention of the shared bus;
//   - forkJoin is the per-loop barrier cost of the runtime system.
//
// Each contestant has Traits describing how its compiler/runtime
// parallelizes: SAC parallelizes every WITH-loop but adaptively keeps
// loops sequential when that is cheaper (its sequential-threshold policy);
// the auto-parallelizing Fortran compiler handles only the clean
// resid/psinv nests; OpenMP parallelizes every annotated nest with the
// cheapest fork/join (Omni's microtasking) but without SAC's adaptivity.
// The trait constants are calibrated once against the speedup endpoints
// the paper reports (SAC 5.3/7.6, f77 2.8/4.0, OpenMP 8.0/9.0 for W/A at
// ten processors); everything else — the distribution of work over
// kernels and levels, and hence the shape of the curves — comes from the
// measured profiles.
package smp

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/nas"
)

// RegionKey identifies one kernel class at one grid level.
type RegionKey struct {
	Name  string
	Level int
}

// Region is the aggregated measurement of one kernel class.
type Region struct {
	RegionKey
	// Calls is the number of invocations per timed benchmark run.
	Calls int
	// Seconds is the total serial time of those invocations.
	Seconds float64
}

// Profile is the measured serial work profile of one implementation on
// one problem class.
type Profile struct {
	// Impl and Class label the profile.
	Impl  string
	Class nas.Class
	// Regions holds the per-kernel aggregates, sorted by level then name.
	Regions []Region
}

// Collector builds a Profile from nas.Probe callbacks. It is safe for
// concurrent use (probes can fire from worker goroutines).
type Collector struct {
	mu   sync.Mutex
	acc  map[RegionKey]*Region
	impl string
	cls  nas.Class
}

// NewCollector creates a collector for the given implementation label.
func NewCollector(impl string, class nas.Class) *Collector {
	return &Collector{acc: make(map[RegionKey]*Region), impl: impl, cls: class}
}

// Probe is the nas.Probe to attach to a solver.
func (c *Collector) Probe(region string, level int, elapsed time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := RegionKey{Name: region, Level: level}
	r := c.acc[k]
	if r == nil {
		r = &Region{RegionKey: k}
		c.acc[k] = r
	}
	r.Calls++
	r.Seconds += elapsed.Seconds()
}

// Profile returns the aggregated profile.
func (c *Collector) Profile() Profile {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := Profile{Impl: c.impl, Class: c.cls}
	for _, r := range c.acc {
		p.Regions = append(p.Regions, *r)
	}
	sort.Slice(p.Regions, func(i, j int) bool {
		if p.Regions[i].Level != p.Regions[j].Level {
			return p.Regions[i].Level < p.Regions[j].Level
		}
		return p.Regions[i].Name < p.Regions[j].Name
	})
	return p
}

// SerialSeconds is the profile's total measured serial time.
func (p Profile) SerialSeconds() float64 {
	total := 0.0
	for _, r := range p.Regions {
		total += r.Seconds
	}
	return total
}

// String renders the profile as a table for reports.
func (p Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile %s class %c: %.4fs serial\n", p.Impl, p.Class.Name, p.SerialSeconds())
	for _, r := range p.Regions {
		fmt.Fprintf(&b, "  L%-2d %-12s calls %-4d total %8.3fms\n",
			r.Level, r.Name, r.Calls, r.Seconds*1e3)
	}
	return b.String()
}

// Traits describe how one implementation's compiler/runtime parallelizes.
type Traits struct {
	// Name labels the implementation in reports.
	Name string
	// ForkJoin is the barrier cost per parallel loop instance (seconds).
	ForkJoin float64
	// AllocPerCall × AllocCost is the sequential memory-management time
	// per kernel call; it never shrinks with P (grid-size invariant —
	// the reference-count bookkeeping the paper blames for small-grid
	// overhead).
	AllocPerCall float64
	// AllocCost is seconds per allocation event.
	AllocCost float64
	// AllocFrac is the fraction of each call's measured time that is
	// sequential memory traffic proportional to the grid size (zero
	// initialisation and copies of freshly allocated arrays).
	AllocFrac float64
	// Adaptive runtimes skip parallelization when the sequential form is
	// cheaper (SAC's sequential-threshold policy).
	Adaptive bool
	// Parallel lists the kernel names the implementation parallelizes.
	Parallel map[string]bool
}

// The calibrated trait sets of the paper's three contestants. The kernel
// name sets mirror the parallelization modes of internal/f77 (AutoPar,
// FullPar) and internal/core (every WITH-loop).
var (
	// SAC: implicit multithreading of every WITH-loop, pthread-based
	// fork/join, reference-counted dynamic memory management, adaptive
	// sequential threshold.
	SAC = Traits{
		Name:         "SAC",
		ForkJoin:     45e-6,
		AllocPerCall: 1.5,
		AllocCost:    13e-6,
		AllocFrac:    0.02,
		Adaptive:     true,
		Parallel: map[string]bool{
			"resid": true, "smooth": true, "fine2coarse": true, "coarse2fine": true,
			"psinv": true, "rprj3": true, "interp": true,
		},
	}
	// F77Auto: the SUN f77 auto-parallelizer handles the dependence-free
	// resid/psinv nests only; static memory (no allocation cost).
	F77Auto = Traits{
		Name:     "F77-auto",
		ForkJoin: 40e-6,
		Parallel: map[string]bool{"resid": true, "psinv": true},
	}
	// OpenMP: 30 hand-placed directives cover every nest; Omni's
	// microtasking has the cheapest fork/join; almost-static memory.
	OpenMP = Traits{
		Name:     "OpenMP",
		ForkJoin: 4e-6,
		Parallel: map[string]bool{
			"resid": true, "psinv": true, "rprj3": true, "interp": true,
			"smooth": true, "fine2coarse": true, "coarse2fine": true,
		},
	}
)

// Machine models the shared-memory host.
type Machine struct {
	// MaxProcs is the largest processor count to simulate (the paper
	// uses 10 of the machine's 12).
	MaxProcs int
	// Beta is the memory-bus contention coefficient: parallel work is
	// inflated by 1 + Beta·(P−1).
	Beta float64
}

// Enterprise4000 is the default machine model.
func Enterprise4000() Machine { return Machine{MaxProcs: 10, Beta: 0.012} }

// Predict returns the modeled execution time of the profiled program with
// the given traits at P processors.
func (m Machine) Predict(p Profile, tr Traits, procs int) float64 {
	if procs < 1 {
		panic(fmt.Sprintf("smp: invalid processor count %d", procs))
	}
	total := 0.0
	for _, r := range p.Regions {
		tCall := r.Seconds / float64(r.Calls)
		if procs == 1 || !tr.Parallel[r.Name] {
			total += r.Seconds
			continue
		}
		// Memory-management share of the call: an invariant per-event
		// part plus a size-proportional zero/copy part; both serial.
		alloc := tr.AllocPerCall*tr.AllocCost + tr.AllocFrac*tCall
		if alloc > tCall/2 {
			alloc = tCall / 2 // never more than half of a measured call
		}
		work := tCall - alloc
		// Outer-plane decomposition: a level-L grid has 2^L interior
		// planes to distribute.
		chunks := procs
		if planes := 1 << r.Level; planes < chunks {
			chunks = planes
		}
		bw := 1 + m.Beta*float64(procs-1)
		parCall := alloc + work/float64(chunks)*bw + tr.ForkJoin
		if tr.Adaptive && parCall > tCall {
			parCall = tCall
		}
		total += parCall * float64(r.Calls)
	}
	return total
}

// Speedups returns the self-relative speedup curve S(P) = T(1)/T(P) for
// P = 1..MaxProcs — one Figure-12 series.
func (m Machine) Speedups(p Profile, tr Traits) []float64 {
	base := m.Predict(p, tr, 1)
	out := make([]float64, m.MaxProcs)
	for procs := 1; procs <= m.MaxProcs; procs++ {
		out[procs-1] = base / m.Predict(p, tr, procs)
	}
	return out
}
