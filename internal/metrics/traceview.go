// Offline analysis of the JSON-lines V-cycle trace (trace.go): reading an
// event stream back, aggregating spans per (rank, kernel, level) with a
// critical-path and load-imbalance summary, and converting the stream to
// Chrome trace-event JSON that chrome://tracing and Perfetto load
// directly. cmd/mgtrace is the CLI over these functions.
//
// # Perfetto track layout
//
// Each simulated-MPI rank becomes one Perfetto process (pid = rank), so
// the concatenated traces of an mgmpi run merge into a single timeline.
// Within a process:
//
//	tid 0               the solve track: whole-solve spans, iteration
//	                    instants, and the V-cycle level counter
//	tid 1+level         one track per grid level carrying that level's
//	                    region spans (resid, smooth, fine2coarse,
//	                    coarse2fine)
//	tid 500+level       one communication track per grid level carrying
//	                    the rank's send/recv blocked spans; flow arrows
//	                    ("s"/"f" events at the span midpoints) connect
//	                    each matched send to its recv across processes
//	tid 1000+worker     one track per scheduler worker carrying its
//	                    "wspan" busy slices
//	tid 2000+100·j      one block of tracks per daemon job (events
//	                    tagged with a trace ID, in order of first
//	                    appearance): the base tid carries the job's
//	                    service-stage spans (ingress, queue, dedup,
//	                    solve, respond) plus its iteration instants and
//	                    whole-solve span; base+1+level carries its
//	                    kernel region spans. Grouping by trace tag is
//	                    what keeps each request's span tree connected
//	                    when many jobs interleave on shared workers.
//
// Span timestamps derive from the tracer's emit stamp: an event's T is
// taken when the span ends, so its start is T − Nanos. Timestamps are
// microseconds (the trace-event convention).
package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// ReadEventsTolerant parses a JSON-lines trace stream back into events,
// in stream order, skipping blank lines. It forgives a torn trailing
// write — the signature of a rank killed mid-line, which leaves a
// truncated JSON object at the very end of its file. Malformed lines
// with no valid event after them are skipped and counted; a malformed
// line followed by more valid data still aborts, because that is
// corruption, not a torn tail.
func ReadEventsTolerant(r io.Reader) (events []Event, torn int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	var tornErr error
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		if uerr := json.Unmarshal(line, &e); uerr != nil {
			torn++
			if tornErr == nil {
				tornErr = fmt.Errorf("metrics: trace line %d: %w", lineNo, uerr)
			}
			continue
		}
		if torn > 0 {
			return nil, 0, fmt.Errorf("metrics: trace line %d: valid event after malformed line (%v)", lineNo, tornErr)
		}
		events = append(events, e)
	}
	if serr := sc.Err(); serr != nil {
		return nil, 0, serr
	}
	return events, torn, nil
}

// SpanStat aggregates the "span" events of one (rank, kernel, level).
type SpanStat struct {
	Rank   int    `json:"rank"`
	Kernel string `json:"kernel"`
	Level  int    `json:"level"`
	Count  int    `json:"count"`
	Nanos  int64  `json:"nanos"`
}

// RankStat aggregates one rank's trace: total region-span time, solve
// time, and event count.
type RankStat struct {
	Rank       int   `json:"rank"`
	SpanNanos  int64 `json:"spanNanos"`
	SolveNanos int64 `json:"solveNanos"`
	Events     int   `json:"events"`
}

// WorkerSpanStat aggregates the "wspan" busy slices of one (rank, worker).
type WorkerSpanStat struct {
	Rank   int   `json:"rank"`
	Worker int   `json:"worker"`
	Count  int   `json:"count"`
	Nanos  int64 `json:"nanos"`
}

// StageStat aggregates the service-stage spans of one stage across the
// stream — the trace-side view of the daemon's mgd_stage_seconds
// histograms.
type StageStat struct {
	Stage string `json:"stage"`
	Count int    `json:"count"`
	Nanos int64  `json:"nanos"`
}

// Summary is the aggregated view of one trace stream (Summarize).
type Summary struct {
	Events  int              `json:"events"`
	Iters   int              `json:"iters"`
	Solves  int              `json:"solves"`
	Spans   []SpanStat       `json:"spans"`
	Ranks   []RankStat       `json:"ranks"`
	Workers []WorkerSpanStat `json:"workers,omitempty"`
	// Stages aggregates daemon service-stage spans; Traces counts the
	// distinct trace IDs in the stream (0 for one-shot CLI traces).
	Stages []StageStat `json:"stages,omitempty"`
	Traces int         `json:"traces,omitempty"`
	// SolveNanos sums the whole-solve spans; FinalRnm2 is the last solve
	// event's residual norm.
	SolveNanos int64   `json:"solveNanos"`
	FinalRnm2  float64 `json:"finalRnm2,omitempty"`
	// CriticalPathNanos is the slowest rank's region-span total — with
	// simulated MPI the ranks run their V-cycles in lockstep phases, so
	// the slowest rank bounds the timeline.
	CriticalPathNanos int64 `json:"criticalPathNanos"`
	// RankImbalance is max/mean of the per-rank span totals (0 with
	// fewer than two ranks); WorkerImbalance is max/mean of the
	// per-worker busy totals across all wspans (0 without wspans).
	RankImbalance   float64 `json:"rankImbalance,omitempty"`
	WorkerImbalance float64 `json:"workerImbalance,omitempty"`
}

// Summarize aggregates a trace stream: per-(rank, kernel, level) span
// totals, per-rank and per-worker rollups, and the derived critical-path
// and imbalance figures.
func Summarize(events []Event) Summary {
	sum := Summary{Events: len(events)}
	spans := map[SpanStat]*SpanStat{}
	ranks := map[int]*RankStat{}
	workers := map[[2]int]*WorkerSpanStat{}
	stages := map[string]*StageStat{}
	traces := map[string]bool{}
	rankOf := func(rank int) *RankStat {
		r := ranks[rank]
		if r == nil {
			r = &RankStat{Rank: rank}
			ranks[rank] = r
		}
		return r
	}
	for _, e := range events {
		rankOf(e.Rank).Events++
		if e.Trace != "" {
			traces[e.Trace] = true
		}
		switch e.Ev {
		case "span":
			key := SpanStat{Rank: e.Rank, Kernel: e.Kernel, Level: e.Level}
			s := spans[key]
			if s == nil {
				s = &SpanStat{Rank: e.Rank, Kernel: e.Kernel, Level: e.Level}
				spans[key] = s
			}
			s.Count++
			s.Nanos += e.Nanos
			rankOf(e.Rank).SpanNanos += e.Nanos
		case "wspan":
			key := [2]int{e.Rank, e.Worker}
			w := workers[key]
			if w == nil {
				w = &WorkerSpanStat{Rank: e.Rank, Worker: e.Worker}
				workers[key] = w
			}
			w.Count++
			w.Nanos += e.Nanos
		case "stage":
			s := stages[e.Stage]
			if s == nil {
				s = &StageStat{Stage: e.Stage}
				stages[e.Stage] = s
			}
			s.Count++
			s.Nanos += e.Nanos
		case "iter":
			sum.Iters++
		case "solve":
			sum.Solves++
			sum.SolveNanos += e.Nanos
			sum.FinalRnm2 = e.Rnm2
			rankOf(e.Rank).SolveNanos += e.Nanos
		}
	}
	for _, s := range spans {
		sum.Spans = append(sum.Spans, *s)
	}
	sort.Slice(sum.Spans, func(i, j int) bool {
		a, b := sum.Spans[i], sum.Spans[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		return a.Level < b.Level
	})
	for _, r := range ranks {
		sum.Ranks = append(sum.Ranks, *r)
	}
	sort.Slice(sum.Ranks, func(i, j int) bool { return sum.Ranks[i].Rank < sum.Ranks[j].Rank })
	for _, w := range workers {
		sum.Workers = append(sum.Workers, *w)
	}
	sort.Slice(sum.Workers, func(i, j int) bool {
		a, b := sum.Workers[i], sum.Workers[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Worker < b.Worker
	})

	for _, s := range stages {
		sum.Stages = append(sum.Stages, *s)
	}
	sort.Slice(sum.Stages, func(i, j int) bool { return sum.Stages[i].Stage < sum.Stages[j].Stage })
	sum.Traces = len(traces)

	var rankSum, rankMax int64
	for _, r := range sum.Ranks {
		rankSum += r.SpanNanos
		if r.SpanNanos > rankMax {
			rankMax = r.SpanNanos
		}
	}
	sum.CriticalPathNanos = rankMax
	if len(sum.Ranks) > 1 && rankSum > 0 {
		sum.RankImbalance = float64(rankMax) / (float64(rankSum) / float64(len(sum.Ranks)))
	}
	var busySum, busyMax int64
	for _, w := range sum.Workers {
		busySum += w.Nanos
		if w.Nanos > busyMax {
			busyMax = w.Nanos
		}
	}
	if len(sum.Workers) > 1 && busySum > 0 {
		sum.WorkerImbalance = float64(busyMax) / (float64(busySum) / float64(len(sum.Workers)))
	}
	return sum
}

// WriteText renders the summary as the mgtrace report.
func (s Summary) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Trace summary: %d events, %d iterations, %d solve span(s)\n",
		s.Events, s.Iters, s.Solves)
	if s.Solves > 0 {
		fmt.Fprintf(w, "solve time: %.3f ms, final rnm2 %.6e\n",
			float64(s.SolveNanos)/1e6, s.FinalRnm2)
	}
	fmt.Fprintf(w, "%-6s %-14s %6s %8s %12s\n", "rank", "kernel", "level", "spans", "ms")
	for _, sp := range s.Spans {
		fmt.Fprintf(w, "%-6d %-14s %6d %8d %12.3f\n",
			sp.Rank, sp.Kernel, sp.Level, sp.Count, float64(sp.Nanos)/1e6)
	}
	if len(s.Stages) > 0 {
		fmt.Fprintf(w, "service stages (%d traced job(s)):\n", s.Traces)
		for _, st := range s.Stages {
			fmt.Fprintf(w, "  %-10s %6d span(s) %12.3f ms\n",
				st.Stage, st.Count, float64(st.Nanos)/1e6)
		}
	}
	fmt.Fprintf(w, "critical path (slowest rank): %.3f ms\n", float64(s.CriticalPathNanos)/1e6)
	if s.RankImbalance > 0 {
		fmt.Fprintf(w, "rank imbalance: %.3f (max/mean span time over %d ranks)\n",
			s.RankImbalance, len(s.Ranks))
	}
	if len(s.Workers) > 0 {
		for _, ws := range s.Workers {
			fmt.Fprintf(w, "rank %d worker %2d: %6d busy slices, %10.3f ms\n",
				ws.Rank, ws.Worker, ws.Count, float64(ws.Nanos)/1e6)
		}
		if s.WorkerImbalance > 0 {
			fmt.Fprintf(w, "worker imbalance: %.3f (max/mean busy)\n", s.WorkerImbalance)
		}
	}
}

// ChromeEvent is one Chrome trace-event record (the subset the converter
// emits: complete spans "X", instants "i", counters "C" and metadata "M").
type ChromeEvent struct {
	Name string `json:"name"`
	Ph   string `json:"ph"`
	// Ts is the event timestamp in microseconds; Dur the span length.
	Ts  float64 `json:"ts"`
	Dur float64 `json:"dur,omitempty"`
	Pid int     `json:"pid"`
	Tid int     `json:"tid"`
	Cat string  `json:"cat,omitempty"`
	// S is the instant scope ("p" = process).
	S string `json:"s,omitempty"`
	// Id links the "s"/"f" halves of one flow arrow; Bp "e" binds the
	// finish to the enclosing slice (the trace-event flow convention).
	Id   string         `json:"id,omitempty"`
	Bp   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the JSON object container format of the trace-event
// spec; Perfetto and chrome://tracing load it directly.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Track id scheme of the converter (see the package comment).
const (
	// TidSolve is the per-rank solve/iteration track.
	TidSolve = 0
	// TidLevelBase + level is the grid-level track.
	TidLevelBase = 1
	// TidCommBase + level is the per-level communication track carrying
	// send/recv blocked spans and the endpoints of their flow arrows.
	TidCommBase = 500
	// TidWorkerBase + worker is the scheduler-worker track.
	TidWorkerBase = 1000
	// TidJobBase + TidJobStride·job is the base track of one traced
	// daemon job (service-stage spans); base+1+level carries the job's
	// kernel region spans. Jobs are numbered by first appearance of
	// their trace tag.
	TidJobBase   = 2000
	TidJobStride = 100
)

// ChromeTraceAligned converts a trace stream to Chrome trace-event JSON:
// pid = rank, one thread per solve/level/worker track, named via metadata
// events. Span starts are reconstructed as T − Nanos (the tracer stamps
// events when they end). Ranks' clocks are aligned: each event's T is
// shifted by the rank's estimated offset (OffsetMap of EstimateOffsets)
// and the merged stream is rebased so the earliest span start lands at
// 0 — Perfetto then shows one coherent timeline instead of per-rank
// epochs. A nil or empty offsets map applies no shift. Matched send/recv
// pairs additionally get flow arrows ("s" at the send span's midpoint,
// "f" at the recv's) so each message is a visible edge between its two
// processes.
func ChromeTraceAligned(events []Event, offsets map[int]int64) ChromeTrace {
	if len(offsets) > 0 {
		shifted := make([]Event, len(events))
		copy(shifted, events)
		var minStart int64
		for i := range shifted {
			shifted[i].T += offsets[shifted[i].Rank]
			if start := shifted[i].T - shifted[i].Nanos; i == 0 || start < minStart {
				minStart = start
			}
		}
		if minStart < 0 {
			for i := range shifted {
				shifted[i].T -= minStart
			}
		}
		events = shifted
	}
	out := ChromeTrace{DisplayTimeUnit: "ms", TraceEvents: []ChromeEvent{}}
	type track struct{ pid, tid int }
	named := map[track]string{}
	use := func(pid, tid int, name string) {
		named[track{pid, tid}] = name
	}
	usToTs := func(ns int64) float64 { return float64(ns) / 1e3 }
	// spanStart reconstructs a span's start from its end stamp, clamped
	// to the tracer epoch (a span cannot begin before the tracer existed;
	// clock-resolution jitter could otherwise push it negative).
	spanStart := func(end, dur int64) float64 {
		if start := end - dur; start > 0 {
			return usToTs(start)
		}
		return 0
	}
	// Trace-tagged events (daemon jobs) get their own track block so each
	// request's span tree stays connected: jobTid maps a trace ID to its
	// base tid, in order of first appearance.
	jobTids := map[string]int{}
	jobTid := func(e Event) int {
		tid, ok := jobTids[e.Trace]
		if !ok {
			tid = TidJobBase + TidJobStride*len(jobTids)
			jobTids[e.Trace] = tid
			label := e.Job
			if label == "" {
				label = e.Trace
			}
			if len(label) > 16 {
				label = label[:16]
			}
			use(e.Rank, tid, "job "+label)
		}
		return tid
	}
	// jobArgs tags a Chrome event with its trace/job identity so Perfetto
	// queries can join spans back to logs and API results.
	jobArgs := func(e Event, args map[string]any) map[string]any {
		args["trace"] = e.Trace
		if e.Job != "" {
			args["job"] = e.Job
		}
		return args
	}
	for _, e := range events {
		switch e.Ev {
		case "span":
			if e.Trace != "" {
				base := jobTid(e)
				tid := base + 1 + e.Level
				use(e.Rank, tid, fmt.Sprintf("level %d", e.Level))
				out.TraceEvents = append(out.TraceEvents, ChromeEvent{
					Name: e.Kernel, Ph: "X", Cat: "region",
					Ts: spanStart(e.T, e.Nanos), Dur: usToTs(e.Nanos),
					Pid: e.Rank, Tid: tid,
					Args: jobArgs(e, map[string]any{"level": e.Level}),
				})
				continue
			}
			tid := TidLevelBase + e.Level
			use(e.Rank, tid, fmt.Sprintf("level %d", e.Level))
			out.TraceEvents = append(out.TraceEvents, ChromeEvent{
				Name: e.Kernel, Ph: "X", Cat: "region",
				Ts: spanStart(e.T, e.Nanos), Dur: usToTs(e.Nanos),
				Pid: e.Rank, Tid: tid,
				Args: map[string]any{"level": e.Level},
			})
		case "stage":
			// Service-stage spans only exist trace-tagged; an untagged one
			// (hand-written trace) lands in a shared job block keyed "".
			tid := jobTid(e)
			out.TraceEvents = append(out.TraceEvents, ChromeEvent{
				Name: e.Stage, Ph: "X", Cat: "stage",
				Ts: spanStart(e.T, e.Nanos), Dur: usToTs(e.Nanos),
				Pid: e.Rank, Tid: tid,
				Args: jobArgs(e, map[string]any{"stage": e.Stage}),
			})
		case "wspan":
			tid := TidWorkerBase + e.Worker
			use(e.Rank, tid, fmt.Sprintf("worker %d", e.Worker))
			out.TraceEvents = append(out.TraceEvents, ChromeEvent{
				Name: "busy", Ph: "X", Cat: "sched",
				Ts: spanStart(e.T, e.Nanos), Dur: usToTs(e.Nanos),
				Pid: e.Rank, Tid: tid,
				Args: map[string]any{"worker": e.Worker},
			})
		case "iter":
			tid := TidSolve
			args := map[string]any{"iter": e.Iter}
			if e.Trace != "" {
				tid = jobTid(e)
				args = jobArgs(e, args)
			} else {
				use(e.Rank, tid, "solve")
			}
			out.TraceEvents = append(out.TraceEvents, ChromeEvent{
				Name: fmt.Sprintf("iteration %d", e.Iter), Ph: "i", Cat: "iter",
				Ts: usToTs(e.T), Pid: e.Rank, Tid: tid, S: "p",
				Args: args,
			})
		case "solve":
			tid := TidSolve
			args := map[string]any{"iter": e.Iter, "rnm2": e.Rnm2}
			if e.Trace != "" {
				tid = jobTid(e)
				args = jobArgs(e, args)
			} else {
				use(e.Rank, tid, "solve")
			}
			out.TraceEvents = append(out.TraceEvents, ChromeEvent{
				Name: "solve", Ph: "X", Cat: "solve",
				Ts: spanStart(e.T, e.Nanos), Dur: usToTs(e.Nanos),
				Pid: e.Rank, Tid: tid,
				Args: args,
			})
		case "level":
			// The V-cycle depth counter: entering a level sets the gauge
			// to that level, leaving it restores the parent (level+1).
			tid := TidSolve
			if e.Trace != "" {
				tid = jobTid(e)
			} else {
				use(e.Rank, tid, "solve")
			}
			val := e.Level
			if e.Dir == "up" {
				val = e.Level + 1
			}
			out.TraceEvents = append(out.TraceEvents, ChromeEvent{
				Name: "vcycle level", Ph: "C",
				Ts: usToTs(e.T), Pid: e.Rank, Tid: tid,
				Args: map[string]any{"level": val},
			})
		case "send", "recv":
			tid := TidCommBase + e.Level
			use(e.Rank, tid, fmt.Sprintf("comm level %d", e.Level))
			out.TraceEvents = append(out.TraceEvents, ChromeEvent{
				Name: fmt.Sprintf("%s %d↔%d", e.Ev, e.Rank, e.Peer), Ph: "X", Cat: "comm",
				Ts: spanStart(e.T, e.Nanos), Dur: usToTs(e.Nanos),
				Pid: e.Rank, Tid: tid,
				Args: map[string]any{
					"peer": e.Peer, "tag": e.Tag, "bytes": e.Bytes,
					"seq": e.Seq, "iter": e.Iter,
				},
			})
		case "hello":
			use(e.Rank, TidSolve, "solve")
			out.TraceEvents = append(out.TraceEvents, ChromeEvent{
				Name: "rendezvous", Ph: "i", Cat: "comm",
				Ts: usToTs(e.T), Pid: e.Rank, Tid: TidSolve, S: "p",
			})
		}
	}
	// Flow arrows between the two halves of every matched exchange: one
	// "s"/"f" pair sharing an id, anchored at the span midpoints. The
	// finish is clamped to never precede its start — residual clock error
	// on an aligned merge could otherwise invert an arrow, which renderers
	// reject.
	pairs, _, _ := PairComms(events)
	for i, p := range pairs {
		id := fmt.Sprintf("comm%d", i+1)
		sTs := usToTs(p.SendEndNs - p.SendNanos/2)
		fTs := usToTs(p.RecvEndNs - p.RecvNanos/2)
		if sTs < 0 {
			sTs = 0
		}
		if fTs < sTs {
			fTs = sTs
		}
		out.TraceEvents = append(out.TraceEvents,
			ChromeEvent{Name: "msg", Ph: "s", Cat: "comm", Id: id,
				Ts: sTs, Pid: p.Src, Tid: TidCommBase + p.Level},
			ChromeEvent{Name: "msg", Ph: "f", Bp: "e", Cat: "comm", Id: id,
				Ts: fTs, Pid: p.Dst, Tid: TidCommBase + p.Level},
		)
	}
	// Metadata: name each rank's process and every used track, in
	// deterministic order.
	tracks := make([]track, 0, len(named))
	for tr := range named {
		tracks = append(tracks, tr)
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].pid != tracks[j].pid {
			return tracks[i].pid < tracks[j].pid
		}
		return tracks[i].tid < tracks[j].tid
	})
	seenPid := map[int]bool{}
	var meta []ChromeEvent
	for _, tr := range tracks {
		if !seenPid[tr.pid] {
			seenPid[tr.pid] = true
			meta = append(meta, ChromeEvent{
				Name: "process_name", Ph: "M", Pid: tr.pid, Tid: 0,
				Args: map[string]any{"name": fmt.Sprintf("mg rank %d", tr.pid)},
			})
		}
		meta = append(meta, ChromeEvent{
			Name: "thread_name", Ph: "M", Pid: tr.pid, Tid: tr.tid,
			Args: map[string]any{"name": named[tr]},
		})
	}
	out.TraceEvents = append(meta, out.TraceEvents...)
	return out
}

// Validate checks the converter's output against the trace-event format
// contract Perfetto relies on: a traceEvents array whose records carry a
// name, a known phase, non-negative timestamps and durations, metadata
// args with a name, and instants with a valid scope. The schema unit test
// and mgtrace -check run it.
func (t ChromeTrace) Validate() error {
	if t.TraceEvents == nil {
		return fmt.Errorf("traceEvents missing")
	}
	for i, e := range t.TraceEvents {
		where := func(msg string, args ...any) error {
			return fmt.Errorf("traceEvents[%d] (%s %q): %s", i, e.Ph, e.Name, fmt.Sprintf(msg, args...))
		}
		if e.Name == "" {
			return fmt.Errorf("traceEvents[%d]: empty name", i)
		}
		switch e.Ph {
		case "X":
			if e.Dur < 0 {
				return where("negative dur %g", e.Dur)
			}
			if e.Ts < 0 {
				return where("negative ts %g", e.Ts)
			}
		case "i":
			if e.S != "" && e.S != "g" && e.S != "p" && e.S != "t" {
				return where("bad instant scope %q", e.S)
			}
			if e.Ts < 0 {
				return where("negative ts %g", e.Ts)
			}
		case "C":
			if len(e.Args) == 0 {
				return where("counter without args")
			}
		case "M":
			if _, ok := e.Args["name"]; !ok {
				return where("metadata without args.name")
			}
		case "s", "f":
			if e.Id == "" {
				return where("flow event without id")
			}
			if e.Ts < 0 {
				return where("negative ts %g", e.Ts)
			}
			if e.Ph == "f" && e.Bp != "" && e.Bp != "e" {
				return where("bad flow binding point %q", e.Bp)
			}
		default:
			return where("unknown phase")
		}
	}
	return nil
}
