// Command mgtrace analyses the JSON-lines V-cycle traces that cmd/mg,
// cmd/mgrank and cmd/mgd write (-trace run.jsonl; schema: DESIGN.md
// §3.2):
//
//	mgtrace run.jsonl                     # per-(kernel, level) span summary
//	mgtrace -json run.jsonl               # the same summary as one JSON object
//	mgtrace -perfetto out.json run.jsonl  # Chrome trace-event / Perfetto JSON
//	mgtrace rank0.jsonl rank1.jsonl       # merge multiple (rank-tagged) traces
//	mgtrace -commreport rank*.jsonl       # cross-rank skew/overlap report
//
// The text summary aggregates kernel spans per (rank, kernel, level) with
// the critical path (the slowest rank's span total) and rank/worker
// imbalance ratios. -perfetto converts the stream to the Chrome
// trace-event format: one process per rank, with a solve track, one track
// per grid level and one per scheduler worker, loadable in Perfetto
// (ui.perfetto.dev) or chrome://tracing. Multiple input files are
// concatenated before analysis, so per-rank trace files from an mgmpi run
// merge into a single timeline.
//
// Distributed traces (mgrank -trace, one file per rank) carry pairable
// send/recv events. -commreport joins both sides of every exchange,
// estimates per-rank clock offsets from the symmetric exchange
// midpoints, and reports per-(rank, level) compute-vs-blocked time, the
// straggler rank per iteration, and the overlap efficiency (DESIGN.md
// §3.5); it exits non-zero if any send/recv pair is unmatched.
// -perfetto applies the same offsets to a multi-rank trace, rendering
// one clock-aligned timeline with flow arrows between the two halves of
// every exchange. Input files are read tolerantly: a torn trailing line
// (a rank killed mid-write) is skipped with a warning, but an empty
// input or corruption mid-file is a hard error.
//
// Service traces (mgd -trace) interleave many jobs on one stream; their
// events carry trace/job tags. The summary then also aggregates the
// request stages (ingress, queue, dedup, solve, respond) and counts the
// traced jobs, and -perfetto gives each traced job its own track block —
// stage spans on the job's base track, its kernel spans on per-level
// tracks beneath it — so one request reads as a single connected span
// tree from ingress to respond. Filter by the trace arg in Perfetto to
// follow one request end to end.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/metrics"
)

func main() {
	var (
		perfetto   = flag.String("perfetto", "", "write Chrome trace-event / Perfetto JSON to this file ('-' for stdout)")
		jsonOut    = flag.Bool("json", false, "print the summary (or -commreport) as a single JSON object instead of text")
		commreport = flag.Bool("commreport", false, "cross-rank comm analysis: pair send/recv events, estimate clock offsets, report skew/overlap")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mgtrace [flags] trace.jsonl [more.jsonl ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	events, err := readTraces(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "mgtrace:", err)
		os.Exit(1)
	}
	if len(events) == 0 {
		fmt.Fprintln(os.Stderr, "mgtrace: no events in input")
		os.Exit(1)
	}

	if *perfetto != "" {
		if err := writePerfetto(*perfetto, events); err != nil {
			fmt.Fprintln(os.Stderr, "mgtrace:", err)
			os.Exit(1)
		}
		if *perfetto != "-" {
			fmt.Printf("%d events -> %s (open in ui.perfetto.dev or chrome://tracing)\n",
				len(events), *perfetto)
		}
		return
	}

	if *commreport {
		rep := metrics.BuildCommReport(events)
		if *jsonOut {
			if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
				fmt.Fprintln(os.Stderr, "mgtrace:", err)
				os.Exit(1)
			}
		} else {
			rep.WriteText(os.Stdout)
		}
		if unmatched := rep.UnmatchedSends + rep.UnmatchedRecvs; unmatched > 0 {
			fmt.Fprintf(os.Stderr, "mgtrace: %d unmatched send/recv pair(s) — trace incomplete or torn\n", unmatched)
			os.Exit(1)
		}
		return
	}

	sum := metrics.Summarize(events)
	if *jsonOut {
		if err := json.NewEncoder(os.Stdout).Encode(sum); err != nil {
			fmt.Fprintln(os.Stderr, "mgtrace:", err)
			os.Exit(1)
		}
		return
	}
	sum.WriteText(os.Stdout)
}

// readTraces reads and concatenates the JSON-lines event streams, in
// argument order (rank tags, not file order, distinguish ranks). Files
// are read tolerantly: a torn trailing line — the signature of a rank
// killed mid-write — is skipped with a warning on stderr, but a file
// with no events at all, or valid data after a malformed line, is an
// error.
func readTraces(paths []string) ([]metrics.Event, error) {
	var events []metrics.Event
	for _, path := range paths {
		var r io.Reader
		if path == "-" {
			r = os.Stdin
		} else {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			r = f
		}
		evs, torn, err := metrics.ReadEventsTolerant(r)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if torn > 0 {
			fmt.Fprintf(os.Stderr, "mgtrace: warning: %s: skipped %d torn trailing line(s)\n", path, torn)
		}
		if len(evs) == 0 {
			return nil, fmt.Errorf("%s: no events in input", path)
		}
		events = append(events, evs...)
	}
	return events, nil
}

// writePerfetto converts the events to Chrome trace-event JSON, validates
// the result against the schema the loaders expect, and writes it. A
// multi-rank trace carrying comm events is clock-aligned first: every
// rank's events shift by its estimated offset, and matched send/recv
// pairs get cross-process flow arrows.
func writePerfetto(path string, events []metrics.Event) error {
	var offsets map[int]int64
	for _, e := range events {
		if e.Ev == "send" || e.Ev == "recv" || e.Ev == "hello" {
			offsets = metrics.OffsetMap(metrics.EstimateOffsets(events))
			break
		}
	}
	ct := metrics.ChromeTraceAligned(events, offsets)
	if err := ct.Validate(); err != nil {
		return fmt.Errorf("conversion produced invalid trace: %w", err)
	}
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(ct)
}
