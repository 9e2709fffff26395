package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// -agree runs what the acceptance rule compares: agreeSets sets of
// agreeRuns untraced runs per workload.
const (
	agreeSets = 2
	agreeRuns = 10
)

// quartiles returns Q1, the median and Q3 as Python's
// statistics.quantiles(values, n=4) computes them — the rule the
// repository's driver applies to the runs it makes. That is the exclusive
// method, which interpolates at i(n+1)/4; perfstat.Quantile interpolates
// at q(n−1) and would report a narrower spread for the same ten values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		return x[0], x[0], x[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// agreeRow is one (workload, metric) pair of the comparison.
type agreeRow struct {
	Workload string      `json:"workload"`
	Metric   string      `json:"metric"`
	Unit     string      `json:"unit"`
	Bound    float64     `json:"bound"`
	Values   [][]float64 `json:"values"`  // per set, per run
	Medians  []float64   `json:"medians"` // per set
	Spreads  []float64   `json:"spreads"` // per set: (Q3−Q1)/median
	// Gap is how much worse the second set's median is than the first's,
	// as a share of the first; negative when it is better. Two sets of the
	// same tree agree only if |Gap| is within the bound: a second set that
	// is much better is as much a disagreement as one that is much worse.
	Gap float64 `json:"gap"`
	OK  bool    `json:"ok"`
}

// judge fills in the medians, spreads, gap and verdict from the values.
func (r *agreeRow) judge(higherIsBetter, spreadCounts bool) {
	for _, vals := range r.Values {
		q1, q2, q3 := quartiles(vals)
		r.Medians = append(r.Medians, q2)
		r.Spreads = append(r.Spreads, (q3-q1)/q2)
	}
	r.Gap = (r.Medians[1] - r.Medians[0]) / r.Medians[0]
	if higherIsBetter {
		r.Gap = -r.Gap
	}
	r.OK = math.Abs(r.Gap) <= r.Bound
	if spreadCounts && math.Max(r.Spreads[0], r.Spreads[1]) > r.Bound {
		r.OK = false
	}
}

// agreeReport is what -agree writes to bench/out/agree.json.
type agreeReport struct {
	Host    provenance         `json:"host"`
	Seconds float64            `json:"seconds"`
	Seeds   [][]uint64         `json:"seeds"` // per set
	Rows    []agreeRow         `json:"rows"`
	Exact   map[string][]int64 `json:"exact_counts"` // "workload metric" → per set
	// Notes keeps each untraced run's "# kind n=… best=… median=… IQR=…"
	// lines, so the medians behind the best-of-run values stay on record.
	Notes map[string][]string `json:"notes"`
	OK    bool                `json:"ok"`
}

// runSelf runs this program once more, as the driver would, and parses
// the result line. A fresh process per run keeps one run's memory peak
// and caches out of the next.
func runSelf(workload string, seed uint64, secs float64, traced bool) (result, []string, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(secs, 'g', -1, 64), "--trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	var last []byte
	var notes []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) > 0 {
			last = append(last[:0], line...)
		}
		if bytes.HasPrefix(line, []byte("# ")) {
			notes = append(notes, string(line))
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return res, notes, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !res.Correct {
		return res, notes, fmt.Errorf("%s seed %d: run incorrect (%d of %d operations failed)", workload, seed, res.Failed, res.Attempted)
	}
	return res, notes, nil
}

// agree runs agreeSets sets of agreeRuns untraced runs (each with its own
// seed) and one traced run per workload, then applies the acceptance
// rule: within a set, every end-to-end metric but setup_s must have an
// interquartile spread within its bound; between the sets, no median may
// differ from the first set's by more than the bound, in either
// direction; and the exact counts of the traced runs must repeat exactly.
func agree(m *manifest, cfg config) error {
	rep := agreeReport{Host: readProvenance(), Seconds: cfg.seconds, Exact: map[string][]int64{},
		Notes: map[string][]string{}, OK: true}
	rows := map[string]*agreeRow{}
	key := func(w, metric string) string { return w + " " + metric }
	for set := 0; set < agreeSets; set++ {
		var seeds []uint64
		for i := 0; i < agreeRuns; i++ {
			seeds = append(seeds, cfg.seed+uint64(set*1000+i))
		}
		rep.Seeds = append(rep.Seeds, seeds)
		for _, w := range workloads {
			for _, seed := range seeds {
				start := time.Now()
				res, notes, err := runSelf(w.name, seed, cfg.seconds, false)
				if err != nil {
					return err
				}
				rep.Notes[w.name] = append(rep.Notes[w.name], notes...)
				fmt.Printf("set %d %s seed %d: %.1fs\n", set+1, w.name, seed, time.Since(start).Seconds())
				for _, d := range m.EndToEnd {
					r := rows[key(w.name, d.Name)]
					if r == nil {
						r = &agreeRow{Workload: w.name, Metric: d.Name, Unit: d.Unit, Bound: d.Bound,
							Values: make([][]float64, agreeSets)}
						rows[key(w.name, d.Name)] = r
					}
					r.Values[set] = append(r.Values[set], res.Metrics[d.Name].Value)
				}
			}
			res, _, err := runSelf(w.name, seeds[0], cfg.seconds, true)
			if err != nil {
				return err
			}
			for _, name := range exactCounts {
				k := key(w.name, name)
				rep.Exact[k] = append(rep.Exact[k], int64(res.Metrics[name].Value))
			}
		}
	}

	var failures []string
	fmt.Printf("\n%-12s %-12s %14s %14s %8s %8s %8s %6s\n", "workload", "metric", "median 1", "median 2", "spread1", "spread2", "gap", "bound")
	for _, w := range workloads {
		for _, d := range m.EndToEnd {
			r := rows[key(w.name, d.Name)]
			r.judge(d.Better == "higher", d.Name != "setup_s")
			verdict := ""
			if !r.OK {
				verdict = "  OVER"
				failures = append(failures, key(w.name, d.Name))
			}
			fmt.Printf("%-12s %-12s %14.6g %14.6g %8.4f %8.4f %+8.4f %6.2f%s\n", w.name, d.Name,
				r.Medians[0], r.Medians[1], r.Spreads[0], r.Spreads[1], r.Gap, r.Bound, verdict)
			rep.Rows = append(rep.Rows, *r)
		}
	}
	for k, counts := range rep.Exact {
		if counts[0] != counts[1] {
			failures = append(failures, fmt.Sprintf("%s: %d then %d", k, counts[0], counts[1]))
		}
	}
	rep.OK = len(failures) == 0
	blob, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, "agree.json")
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwritten to %s\n", path)
	if !rep.OK {
		return errors.New("the two sets disagree: " + strings.Join(failures, "; "))
	}
	return nil
}
