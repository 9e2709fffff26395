package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/nas"
	"repro/internal/perfstat"
)

// An untraced run sets its section up at least minSetupReps times, and
// again — up to maxSetupReps — while the set-ups have taken less than
// setupBudget in all: the median of 20 ms daemon starts needs more of them
// to be steady than that of 6 s class-A warm-ups.
const (
	minSetupReps = 3
	maxSetupReps = 15
	setupBudget  = 2 * time.Second
)

func newSection(focus string, class nas.Class, cfg config) section {
	switch focus {
	case "solve":
		return newSolveSection(class)
	case "service":
		return newServiceSection(class, cfg)
	}
	return newDistSection(class)
}

func (w workload) classFor(cfg config) nas.Class {
	if cfg.tiny {
		return nas.ClassS
	}
	return w.class
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// describe prints one kind's sample summary: timings are reported as
// median, interquartile range and sample count.
func describe(out io.Writer, label string, secs []float64) {
	if len(secs) == 0 {
		fmt.Fprintf(out, "# %-5s no successful samples\n", label)
		return
	}
	fmt.Fprintf(out, "# %-5s n=%d best=%.6gs median=%.6gs IQR=%.3gs\n", label, len(secs), best(secs),
		median(secs), perfstat.Quantile(secs, 0.75)-perfstat.Quantile(secs, 0.25))
}

// finishRun turns a report and the run's accounting into the result. Any
// failed operation, leaked goroutine or unmeasured metric makes the run
// incorrect.
func finishRun(rep *report, total *tally, errs ...error) (result, error) {
	res := result{Attempted: total.attempted, Failed: total.failed, Metrics: map[string]metricValue{}}
	err := errors.Join(append(errs, total.firstErr)...)
	metrics, merr := rep.finish()
	if merr == nil {
		res.Metrics = metrics
	} else if err == nil {
		err = merr // with failed operations, missing metrics are a symptom
	}
	if res.Attempted == 0 { // nothing could even be tried
		res.Attempted, res.Failed = 1, 1
	}
	res.Correct = err == nil && res.Failed == 0
	return res, err
}

// runUntraced measures the end-to-end metrics of one workload: set the
// focus section up several times, then apply its load for cfg.seconds.
func runUntraced(w workload, cfg config, out io.Writer) (result, error) {
	rep := newReport(endToEnd)
	total := newTally()
	baseline := runtime.NumGoroutine()
	sec := newSection(w.focus, w.classFor(cfg), cfg)
	if err := sec.prepare(); err != nil {
		total.fail(err)
		return finishRun(rep, total)
	}
	minReps, maxReps := minSetupReps, maxSetupReps
	if cfg.tiny {
		minReps, maxReps = 1, 1
	}
	var setups []float64
	var spent time.Duration
	for i := 0; i < minReps || (i < maxReps && spent < setupBudget); i++ {
		if i > 0 {
			if err := sec.teardown(); err != nil {
				total.fail(err)
				return finishRun(rep, total)
			}
			// Return the previous instance's memory, so that each set-up
			// starts from the same heap and the peak is one instance's.
			debug.FreeOSMemory()
		}
		start := time.Now()
		if err := sec.setup(); err != nil {
			total.fail(fmt.Errorf("set-up: %w", err))
			return finishRun(rep, total)
		}
		took := time.Since(start)
		spent += took
		setups = append(setups, took.Seconds())
	}
	t := sec.pass(seconds(cfg.seconds), nil)
	total.merge(t)
	rss, rssErr := sec.peakRSSMB()
	tearErr := sec.teardown()
	leakErr := waitGoroutines(baseline)

	describe(out, "op", t.samples[kindOp])
	describe(out, "alt", t.samples[kindAlt])
	describe(out, "ref", t.samples[kindRef])
	describe(out, "setup", setups)
	emitEndToEnd(rep, t, median(setups), rss)
	return finishRun(rep, total, rssErr, tearErr, leakErr)
}

// emitEndToEnd derives the uniform end-to-end metrics from one pass.
func emitEndToEnd(rep *report, t *tally, setupS, rssMB float64) {
	op, alt := t.samples[kindOp], t.samples[kindAlt]
	if len(op) == 0 || len(alt) == 0 || len(t.rates) == 0 || len(t.ratios) == 0 {
		return // every metric stays unmeasured and the run is reported incorrect
	}
	rep.set("setup_s", setupS)
	rep.set("peak_rss_mb", rssMB)
	rep.set("op_best_ms", best(op)*1e3)
	rep.set("alt_best_ms", best(alt)*1e3)
	rep.set("ops_per_s", slices.Max(t.rates))
	rep.set("vs_f77", median(t.ratios))
}

// runTraced measures every layer at the workload's class. The focus
// section gets two untraced and two traced passes of cfg.seconds/8 each,
// alternated (the ratio of their op medians is the tracing overhead); the
// other two sections get a short traced pass; the probes cover the layers no section loads. Spans go to
// cfg.outDir/trace-<workload>.json.
func runTraced(w workload, cfg config, out io.Writer) (result, error) {
	rep := newReport(perLayer)
	total := newTally()
	baseline := runtime.NumGoroutine()
	class := w.classFor(cfg)
	tr := newTracer()
	p := newProbes(class, cfg.tiny)

	var triadBytes int64
	if cfg.tiny {
		triadBytes = 16 << 20
	}
	id := tr.begin(0, "host controls", "probe")
	p.host = measureHost(triadBytes)
	tr.end(id)
	debug.FreeOSMemory()

	solve := newSolveSection(class)
	svc := newServiceSection(class, cfg)
	dist := newDistSection(class)
	sections := map[string]section{"solve": solve, "service": svc, "dist": dist}
	tallies := map[string]*tally{}
	overhead := 0.0
	var errs []error
	for _, name := range []string{"solve", "service", "dist"} {
		sec := sections[name]
		tallies[name] = newTally() // emitLayers reads it even if the section failed
		if err := sec.prepare(); err != nil {
			total.fail(fmt.Errorf("%s section: %w", name, err))
			continue
		}
		if err := sec.setup(); err != nil {
			total.fail(fmt.Errorf("%s section set-up: %w", name, err))
			continue
		}
		if name == w.focus {
			// Plain, traced, traced, plain: a drift of the host over the
			// four quarters weighs on both sides of the ratio alike.
			plain := newTally()
			for _, t := range []*tracer{nil, tr, tr, nil} {
				got := sec.pass(seconds(cfg.seconds/8), t)
				total.merge(got)
				if t == nil {
					plain.merge(got)
				} else {
					tallies[name].merge(got)
				}
			}
			if a, b := plain.samples[kindOp], tallies[name].samples[kindOp]; len(a) > 0 && len(b) > 0 {
				overhead = median(b) / median(a)
			}
		} else {
			tallies[name] = sec.pass(seconds(cfg.seconds/10), tr)
			total.merge(tallies[name])
		}
		if name == "dist" {
			pings, frames := 200, 200
			if cfg.tiny {
				pings, frames = 20, 20
			}
			var err error
			dist.rttS, dist.streamGBs, err = dist.wireProbe(tr, pings, frames)
			if err != nil {
				total.fail(fmt.Errorf("wire probe: %w", err))
			}
		}
		if err := sec.teardown(); err != nil {
			errs = append(errs, fmt.Errorf("%s section teardown: %w", name, err))
		}
		debug.FreeOSMemory()
	}

	probeT := newTally()
	p.baselines(tr, probeT)
	p.directCalls(tr)
	p.parallelSolve(tr, probeT)
	p.queue(tr, probeT)
	p.rank1S = p.worldSolve(tr, probeT, 1, dist.wantBits)
	p.chanS = p.worldSolve(tr, probeT, distRanks, dist.wantBits)
	total.merge(probeT)
	errs = append(errs, waitGoroutines(baseline))

	if total.failed == 0 {
		emitLayers(rep, p, solve, svc, dist, tallies["solve"], tallies["service"], tallies["dist"], overhead)
	}
	path, err := tr.write(cfg.outDir, w.name, string(class.Name), cfg.seed)
	if err != nil {
		errs = append(errs, err)
	} else {
		fmt.Fprintf(out, "# %d spans written to %s\n", len(tr.spans), path)
	}
	return finishRun(rep, total, errs...)
}
