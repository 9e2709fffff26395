package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
)

// metricDef is one metric the benchmark emits: its name and unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists the metrics a user of the system sees. Every workload
// emits every one of them in an untraced run; what "op" and "alt" mean
// per workload is fixed in workloads (workloads.go) and README.md.
//
// The host is shared, and its other tenants add time in stretches that
// last from milliseconds to minutes: between ten runs of the same tree
// the median of a run's operations spread by up to 0.30 of itself, more
// than any bound may be (README.md, "Which statistics repeat"). So the
// times are the best of their samples and the rate is the best round's or
// slice's, which other tenants can only miss, not inflate; and what a
// typical operation costs is bounded as vs_f77, the median over the
// rounds of the op's time over that of the F77 reference solve run next
// to it, which the host slows alike. Medians and tails in seconds are
// per-layer metrics, without a bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_best_ms", "ms"},
	{"alt_best_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"vs_f77", "ratio"},
}

// coreKernels are the metrics.Collector rows the fused O3 solver feeds;
// the first four are the stencil kernels that also get rate metrics.
var coreKernels = []string{"subRelax", "addRelax", "projectCondense", "interpolate", "comm3"}

// levelBuckets name a kernel's rows from its finest level down: the
// finest, the next two, and everything coarser summed.
var levelBuckets = []string{"top", "top1", "top2", "coarse"}

// perLayer lists the metrics of single layers, emitted by a traced run.
// Layers are this repository's packages.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// Host controls: if these move, the host moved.
		{"host.triad_gbs", "GB/s"},
		{"host.flops_gflops", "GFLOP/s"},
		{"host.spin_s", "s"},
		{"host.llc_mb", "MB"},
		{"host.triad_array_mb", "MB"},
		// The paper's baselines.
		{"f77.solve_s", "s"},
		{"cport.solve_s", "s"},
		{"nas.zran3_s", "s"},
		{"nas.norm2u3_s", "s"},
	}
	for _, k := range coreKernels {
		for _, b := range levelBuckets {
			defs = append(defs, metricDef{"core." + k + "." + b + "_s", "s"})
		}
	}
	for _, k := range coreKernels[:4] {
		defs = append(defs,
			metricDef{"core." + k + ".top_gflops", "GFLOP/s"},
			metricDef{"core." + k + ".top_gbs_computed", "GB/s"},
			metricDef{"core." + k + ".top_roofline_frac", "ratio"})
	}
	return append(defs, []metricDef{
		{"core.comm3.top_gbs_computed", "GB/s"},
		{"core.glue_s", "s"},
		{"core.coverage", "ratio"},
		{"core.direct.fine2coarse_s", "s"},
		{"core.direct.coarse2fine_s", "s"},
		{"core.direct.residnorm_s", "s"},
		{"core.direct.border_s", "s"},
		{"core.direct.vcycle_s", "s"},
		{"core.direct.agreement", "ratio"},
		{"core.solve_s", "s"},
		{"mempool.allocs", "count"},
		{"mempool.reuses", "count"},
		{"mempool.reuse_ratio", "ratio"},
		{"mempool.alloc_bytes", "B"},
		{"proc.cpu_s", "s"},
		{"proc.sys_share", "ratio"},
		{"proc.minor_faults", "count"},
		{"sched.par.workers", "count"},
		{"sched.par.solve_s", "s"},
		{"sched.par.speedup", "ratio"},
		{"jobq.hit_submit_s", "s"},
		{"jobq.cold_total_s", "s"},
		{"jobq.stage.ingress_s", "s"},
		{"jobq.stage.queue_s", "s"},
		{"jobq.stage.solve_s", "s"},
		{"jobq.stage.respond_s", "s"},
		{"jobq.stage.sum_over_total", "ratio"},
		{"jobq.cache_hit_ratio", "ratio"},
		{"jobq.dedup_waiters", "count"},
		{"jobq.rejected", "count"},
		{"mgd.http.hit_overhead_s", "s"},
		{"mgd.http.cold_overhead_s", "s"},
		{"mgd.http.hit_p50_s", "s"},
		{"mgd.http.cold_p50_s", "s"},
		{"mgd.http.hit_p99_s", "s"},
		{"mgd.http.cold_p99_s", "s"},
		{"mgd.jobs_per_s", "1/s"},
		{"mgd.cpu_s_per_job", "s"},
		{"mgd.resp_bytes_per_job", "B"},
		{"mgmpi.rank1.solve_s", "s"},
		{"mgmpi.sync.solve_s", "s"},
		{"mgmpi.overlap.solve_s", "s"},
		{"mgmpi.chan.solve_s", "s"},
		{"mgmpi.speedup_2", "ratio"},
		{"mgmpi.compute_s.sync", "s"},
		{"mgmpi.compute_s.overlap", "s"},
		{"mgmpi.rank_skew_s", "s"},
		{"mgmpi.overlap_gain", "ratio"},
		{"mpi.blocked_s.sync", "s"},
		{"mpi.blocked_s.overlap", "s"},
		{"mpi.blocked_share.sync", "ratio"},
		{"mpi.messages", "count"},
		{"mpi.payload_bytes", "B"},
		{"mpinet.wire_bytes", "B"},
		{"mpinet.rtt_s", "s"},
		{"mpinet.stream_gbs", "GB/s"},
		{"mpinet.bootstrap_s", "s"},
		{"trace.overhead_ratio", "ratio"},
	}...)
}

// exactCounts are the per-layer metrics that must repeat exactly between
// two runs of the same tree (-agree checks them).
var exactCounts = []string{
	"mempool.allocs", "mempool.reuses", "mempool.alloc_bytes",
	"mpi.messages", "mpi.payload_bytes", "mpinet.wire_bytes",
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadManifest reads BENCHMARK.json from the working directory (the repo
// root when run as documented) or its parent (go test runs in bench/).
func loadManifest() (*manifest, error) {
	var firstErr error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		blob, err := os.ReadFile(path)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var m manifest
		if err := json.Unmarshal(blob, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &m, nil
	}
	return nil, fmt.Errorf("BENCHMARK.json not found (run from the repository root): %w", firstErr)
}

// validate checks that what BENCHMARK.json declares is exactly what this
// program emits: same workloads, same metric names and units, names made
// of letters, digits, '_', '.' and '-' only.
func (m *manifest) validate() error {
	var problems []string
	check := func(kind string, declared []manifestMetric, emitted []metricDef) {
		want := map[string]string{}
		for _, d := range emitted {
			if !nameRE.MatchString(d.Name) {
				problems = append(problems, fmt.Sprintf("%s metric %q: bad name", kind, d.Name))
			}
			if _, dup := want[d.Name]; dup {
				problems = append(problems, fmt.Sprintf("%s metric %q emitted twice", kind, d.Name))
			}
			want[d.Name] = d.Unit
		}
		seen := map[string]bool{}
		for _, d := range declared {
			if !nameRE.MatchString(d.Name) {
				problems = append(problems, fmt.Sprintf("%s metric %q: bad name", kind, d.Name))
			}
			unit, ok := want[d.Name]
			switch {
			case !ok:
				problems = append(problems, fmt.Sprintf("%s metric %q is declared but never emitted", kind, d.Name))
			case unit != d.Unit:
				problems = append(problems, fmt.Sprintf("%s metric %q: declared unit %q, emitted %q", kind, d.Name, d.Unit, unit))
			}
			if d.Better != "lower" && d.Better != "higher" {
				problems = append(problems, fmt.Sprintf("%s metric %q: better must be lower or higher", kind, d.Name))
			}
			seen[d.Name] = true
		}
		for name := range want {
			if !seen[name] {
				problems = append(problems, fmt.Sprintf("%s metric %q is emitted but not declared", kind, name))
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)

	declared := map[string]bool{}
	for _, w := range m.Workloads {
		if !nameRE.MatchString(w.Name) {
			problems = append(problems, fmt.Sprintf("workload %q: bad name", w.Name))
		}
		declared[w.Name] = true
		if _, ok := workloadByName(w.Name); !ok {
			problems = append(problems, fmt.Sprintf("workload %q is declared but not implemented", w.Name))
		}
	}
	for _, w := range workloads {
		if !declared[w.name] {
			problems = append(problems, fmt.Sprintf("workload %q is implemented but not declared", w.name))
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("BENCHMARK.json does not match bench:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects one run's metrics against a fixed definition list and
// refuses names outside it, so a run can neither emit an undeclared
// metric nor silently drop a declared one.
type report struct {
	defs   []metricDef
	units  map[string]string
	values map[string]float64
	errs   []string
}

func newReport(defs []metricDef) *report {
	r := &report{defs: defs, units: map[string]string{}, values: map[string]float64{}}
	for _, d := range defs {
		r.units[d.Name] = d.Unit
	}
	return r
}

func (r *report) set(name string, v float64) {
	if _, ok := r.units[name]; !ok {
		r.errs = append(r.errs, fmt.Sprintf("metric %q is not declared", name))
		return
	}
	if _, dup := r.values[name]; dup {
		r.errs = append(r.errs, fmt.Sprintf("metric %q set twice", name))
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.errs = append(r.errs, fmt.Sprintf("metric %q is not finite", name))
		return
	}
	r.values[name] = v
}

// finish returns the metrics object, or an error naming every declared
// metric that was never set and every undeclared one that was.
func (r *report) finish() (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(r.defs))
	errs := append([]string(nil), r.errs...)
	for _, d := range r.defs {
		v, ok := r.values[d.Name]
		if !ok {
			errs = append(errs, fmt.Sprintf("metric %q was never measured", d.Name))
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return out, nil
}
