// Cross-rank communication analysis (DESIGN.md §3.5): pairing the
// send/recv events of a merged multi-rank trace, estimating per-rank
// clock offsets from symmetric exchanges, and the skew/overlap report
// behind `mgtrace -commreport` and `mgbench -fig comm`.
//
// # Pairing
//
// Both transports deliver per-(pair, direction) FIFO, and the mgmpi
// observer numbers each (peer, tag) stream independently on both sides,
// so (src, dst, tag, seq) identifies one message globally: the n-th send
// of a stream is consumed by the n-th matching recv. Pairing is a map
// join, no heuristics.
//
// # Clock offsets
//
// Each rank's tracer stamps T relative to its own epoch (process start);
// merged traces therefore disagree by an unknown per-rank offset. For a
// pair of ranks exchanging messages both ways, the classic NTP argument
// applies: for a message a→b, recvEnd_b − sendEnd_a = latency + off_a −
// off_b (in the convention global = local + off). Taking the minimum
// over many messages approaches minLatency + (off_a − off_b); doing the
// same for b→a and halving the difference cancels the (assumed
// symmetric) minimum latency:
//
//	rel(a,b) = off_a − off_b ≈ (min_ab − min_ba) / 2
//
// which is exactly antisymmetric by construction. Offsets are anchored
// at the lowest rank (offset 0) and propagated breadth-first over the
// exchange graph; ranks unreachable through paired traffic fall back to
// aligning their "hello" rendezvous anchors (the bootstrap completes
// within one round-trip on every rank).
//
// # Skew and overlap
//
// Blocked time is the wall time inside Send/Recv (the event's Nanos).
// The report attributes it per (rank, level) against the per-level
// kernel spans, names the per-iteration straggler — the rank that
// waited least, i.e. the one everyone else's halo receives waited for —
// and computes overlap efficiency: 1 − exposed/window, where exposed
// sums both calls' blocked time and window spans send-start to recv-end
// on the aligned timeline. A fully synchronous exchange hides nothing
// (efficiency ≈ 0); overlapping communication with compute pushes it
// toward 1. FW-3c records today's synchronous baseline.
package metrics

import (
	"fmt"
	"io"
	"sort"
)

// CommPair is one matched send/recv event pair on the merged timeline.
// The end stamps are in each side's local clock (the event T).
type CommPair struct {
	Src, Dst, Tag, Level, Iter int
	Seq                        uint64
	Bytes                      int64
	SendEndNs, RecvEndNs       int64 // local-clock emit stamps
	SendNanos, RecvNanos       int64 // blocked time inside each call
}

type commPairKey struct {
	src, dst, tag int
	seq           uint64
}

// PairComms joins the send and recv events of a merged trace by
// (src, dst, tag, seq). It returns the matched pairs plus the events
// that found no counterpart (either side); a clean run has none.
func PairComms(events []Event) (pairs []CommPair, unmatchedSends, unmatchedRecvs []Event) {
	sends := map[commPairKey]Event{}
	dupSends := []Event{}
	for _, e := range events {
		if e.Ev != "send" {
			continue
		}
		k := commPairKey{e.Rank, e.Peer, e.Tag, e.Seq}
		if _, dup := sends[k]; dup {
			dupSends = append(dupSends, e)
			continue
		}
		sends[k] = e
	}
	for _, e := range events {
		if e.Ev != "recv" {
			continue
		}
		k := commPairKey{e.Peer, e.Rank, e.Tag, e.Seq}
		s, ok := sends[k]
		if !ok {
			unmatchedRecvs = append(unmatchedRecvs, e)
			continue
		}
		delete(sends, k)
		pairs = append(pairs, CommPair{
			Src: s.Rank, Dst: e.Rank, Tag: s.Tag, Level: s.Level, Iter: s.Iter,
			Seq: s.Seq, Bytes: s.Bytes,
			SendEndNs: s.T, RecvEndNs: e.T,
			SendNanos: s.Nanos, RecvNanos: e.Nanos,
		})
	}
	for _, s := range sends {
		unmatchedSends = append(unmatchedSends, s)
	}
	unmatchedSends = append(unmatchedSends, dupSends...)
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].SendEndNs < pairs[j].SendEndNs })
	return pairs, unmatchedSends, unmatchedRecvs
}

// RankOffset is one rank's estimated clock offset: add OffsetNanos to
// the rank's local T to land on the merged timeline (the anchor rank
// keeps offset 0). Samples counts the paired messages that informed the
// estimate (0 = hello-anchor or anchor-rank fallback).
type RankOffset struct {
	Rank        int   `json:"rank"`
	OffsetNanos int64 `json:"offsetNs"`
	Samples     int   `json:"samples"`
}

// RelativeOffset estimates rel(a,b) = off_a − off_b from the pairs
// exchanged between ranks a and b (both directions required) and
// reports how many pairs informed it. The estimator is exactly
// antisymmetric: RelativeOffset(p, b, a) = −RelativeOffset(p, a, b).
func RelativeOffset(pairs []CommPair, a, b int) (offsetNs int64, samples int) {
	const unset = int64(1)<<62 - 1
	minAB, minBA := unset, unset
	nAB, nBA := 0, 0
	for _, p := range pairs {
		switch {
		case p.Src == a && p.Dst == b:
			if d := p.RecvEndNs - p.SendEndNs; d < minAB {
				minAB = d
			}
			nAB++
		case p.Src == b && p.Dst == a:
			if d := p.RecvEndNs - p.SendEndNs; d < minBA {
				minBA = d
			}
			nBA++
		}
	}
	if nAB == 0 || nBA == 0 {
		return 0, 0
	}
	return (minAB - minBA) / 2, nAB + nBA
}

// EstimateOffsets estimates every rank's clock offset from a merged
// trace: pair the comm events, compute relative offsets per exchanging
// rank pair, anchor the lowest rank at 0 and propagate breadth-first.
// Ranks not reachable through paired traffic fall back to aligning
// their "hello" anchors with the anchor rank's (offset 0 if neither
// exists — for a single-process channel-world trace all offsets are 0
// by construction up to estimator noise).
func EstimateOffsets(events []Event) []RankOffset {
	pairs, _, _ := PairComms(events)
	rankSet := map[int]bool{}
	hello := map[int]int64{}
	for _, e := range events {
		rankSet[e.Rank] = true
		if e.Ev == "hello" {
			hello[e.Rank] = e.T
		}
	}
	if len(rankSet) == 0 {
		return nil
	}
	ranks := make([]int, 0, len(rankSet))
	for r := range rankSet {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	anchor := ranks[0]

	type edge struct {
		to      int
		rel     int64 // off_from − off_to
		samples int
	}
	adj := map[int][]edge{}
	for i, a := range ranks {
		for _, b := range ranks[i+1:] {
			rel, n := RelativeOffset(pairs, a, b)
			if n == 0 {
				continue
			}
			adj[a] = append(adj[a], edge{to: b, rel: rel, samples: n})
			adj[b] = append(adj[b], edge{to: a, rel: -rel, samples: n})
		}
	}

	off := map[int]RankOffset{anchor: {Rank: anchor}}
	queue := []int{anchor}
	for len(queue) > 0 {
		a := queue[0]
		queue = queue[1:]
		for _, e := range adj[a] {
			if _, seen := off[e.to]; seen {
				continue
			}
			// rel = off_a − off_to, so off_to = off_a − rel.
			off[e.to] = RankOffset{Rank: e.to, OffsetNanos: off[a].OffsetNanos - e.rel, Samples: e.samples}
			queue = append(queue, e.to)
		}
	}
	out := make([]RankOffset, 0, len(ranks))
	for _, r := range ranks {
		o, ok := off[r]
		if !ok {
			o = RankOffset{Rank: r}
			if hr, okr := hello[r]; okr {
				if ha, oka := hello[anchor]; oka {
					// Align the rendezvous anchors: both hellos mark the
					// same barrier-like instant, the bootstrap completion.
					o.OffsetNanos = ha - hr
				}
			}
		}
		out = append(out, o)
	}
	return out
}

// OffsetMap flattens RankOffsets into the rank → offset form the
// Perfetto alignment consumes.
func OffsetMap(offs []RankOffset) map[int]int64 {
	m := make(map[int]int64, len(offs))
	for _, o := range offs {
		m[o.Rank] = o.OffsetNanos
	}
	return m
}

// CommLevelStat attributes one (rank, level)'s communication against its
// per-level kernel time.
type CommLevelStat struct {
	Rank         int   `json:"rank"`
	Level        int   `json:"level"`
	Sends        int   `json:"sends"`
	Recvs        int   `json:"recvs"`
	Bytes        int64 `json:"bytes"` // payload, both directions
	BlockedNanos int64 `json:"blockedNs"`
	KernelNanos  int64 `json:"kernelNs"`
}

// CommIterStat names the straggler of one V-cycle iteration: the rank
// that spent the least time blocked — the one whose data everyone else's
// receives waited for.
type CommIterStat struct {
	Iter            int   `json:"iter"`
	Straggler       int   `json:"straggler"`
	MinBlockedNanos int64 `json:"minBlockedNs"`
	MaxBlockedNanos int64 `json:"maxBlockedNs"`
	SkewNanos       int64 `json:"skewNs"` // max − min per-rank blocked
}

// CommReport is the skew/overlap analysis of one merged multi-rank trace
// (BuildCommReport). The FW-3c baseline in EXPERIMENTS.md records its
// synchronous-path numbers.
type CommReport struct {
	Ranks          int `json:"ranks"`
	Iterations     int `json:"iterations"`
	Sends          int `json:"sends"`
	Recvs          int `json:"recvs"`
	Matched        int `json:"matched"`
	UnmatchedSends int `json:"unmatchedSends"`
	UnmatchedRecvs int `json:"unmatchedRecvs"`

	TotalBlockedNanos int64   `json:"totalBlockedNs"`
	SolveNanos        int64   `json:"solveNs,omitempty"`
	CommShare         float64 `json:"commShare,omitempty"` // blocked / (ranks × solve wall)

	// ExposedNanos is the blocked time inside Send/Recv across all
	// pairs; WindowNanos the aligned send-start → recv-end extents.
	// OverlapEfficiency = 1 − exposed/window, ≈ 0 for the synchronous
	// exchange (nothing hidden), → 1 when comm hides behind compute.
	ExposedNanos      int64   `json:"exposedNs"`
	WindowNanos       int64   `json:"windowNs"`
	OverlapEfficiency float64 `json:"overlapEfficiency"`

	Offsets []RankOffset    `json:"offsets"`
	Levels  []CommLevelStat `json:"levels"`
	Iters   []CommIterStat  `json:"iters"`
}

// BuildCommReport pairs the comm events of a merged trace and derives
// the skew/overlap report.
func BuildCommReport(events []Event) CommReport {
	pairs, unmatchedS, unmatchedR := PairComms(events)
	offsets := EstimateOffsets(events)
	offMap := OffsetMap(offsets)

	var rep CommReport
	rep.Offsets = offsets
	rep.Matched = len(pairs)
	rep.UnmatchedSends = len(unmatchedS)
	rep.UnmatchedRecvs = len(unmatchedR)

	type rl struct{ rank, level int }
	levels := map[rl]*CommLevelStat{}
	levelOf := func(rank, level int) *CommLevelStat {
		s := levels[rl{rank, level}]
		if s == nil {
			s = &CommLevelStat{Rank: rank, Level: level}
			levels[rl{rank, level}] = s
		}
		return s
	}
	type ir struct{ iter, rank int }
	iterBlocked := map[ir]int64{}
	rankSet := map[int]bool{}

	for _, e := range events {
		rankSet[e.Rank] = true
		switch e.Ev {
		case "send":
			rep.Sends++
			s := levelOf(e.Rank, e.Level)
			s.Sends++
			s.Bytes += e.Bytes
			s.BlockedNanos += e.Nanos
			rep.TotalBlockedNanos += e.Nanos
			if e.Iter > 0 {
				iterBlocked[ir{e.Iter, e.Rank}] += e.Nanos
			}
			if e.Iter > rep.Iterations {
				rep.Iterations = e.Iter
			}
		case "recv":
			rep.Recvs++
			s := levelOf(e.Rank, e.Level)
			s.Recvs++
			s.Bytes += e.Bytes
			s.BlockedNanos += e.Nanos
			rep.TotalBlockedNanos += e.Nanos
			if e.Iter > 0 {
				iterBlocked[ir{e.Iter, e.Rank}] += e.Nanos
			}
			if e.Iter > rep.Iterations {
				rep.Iterations = e.Iter
			}
		case "span":
			// Per-level kernel spans; the mg3P envelope span would double
			// count its children and stays out.
			if e.Kernel != "" && e.Kernel != "mg3P" {
				levelOf(e.Rank, e.Level).KernelNanos += e.Nanos
			}
		case "solve":
			if e.Nanos > rep.SolveNanos {
				rep.SolveNanos = e.Nanos
			}
		}
	}
	rep.Ranks = len(rankSet)

	for _, s := range levels {
		rep.Levels = append(rep.Levels, *s)
	}
	sort.Slice(rep.Levels, func(i, j int) bool {
		a, b := rep.Levels[i], rep.Levels[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		return a.Level > b.Level // finest first, like the V-cycle
	})

	for it := 1; it <= rep.Iterations; it++ {
		st := CommIterStat{Iter: it, Straggler: -1}
		first := true
		for r := range rankSet {
			b := iterBlocked[ir{it, r}]
			if first || b < st.MinBlockedNanos {
				st.MinBlockedNanos = b
				st.Straggler = r
			}
			if first || b > st.MaxBlockedNanos {
				st.MaxBlockedNanos = b
			}
			first = false
		}
		st.SkewNanos = st.MaxBlockedNanos - st.MinBlockedNanos
		rep.Iters = append(rep.Iters, st)
	}

	for _, p := range pairs {
		exposed := p.SendNanos + p.RecvNanos
		window := (p.RecvEndNs + offMap[p.Dst]) - (p.SendEndNs - p.SendNanos + offMap[p.Src])
		if window < exposed {
			// Residual clock error can shrink a window below the time
			// provably spent inside the calls; clamp so the efficiency
			// stays in [0, 1].
			window = exposed
		}
		rep.ExposedNanos += exposed
		rep.WindowNanos += window
	}
	if rep.WindowNanos > 0 {
		rep.OverlapEfficiency = 1 - float64(rep.ExposedNanos)/float64(rep.WindowNanos)
	}
	if rep.SolveNanos > 0 && rep.Ranks > 0 {
		rep.CommShare = float64(rep.TotalBlockedNanos) / (float64(rep.Ranks) * float64(rep.SolveNanos))
	}
	return rep
}

// WriteText renders the comm report. The CI distributed job greps this
// output for "unmatched send/recv pairs: 0" and the per-iteration
// "straggler rank" lines — keep both phrasings stable.
func (r CommReport) WriteText(w io.Writer) {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	fmt.Fprintf(w, "Distributed comm report: %d ranks, %d iterations, %d matched pairs\n",
		r.Ranks, r.Iterations, r.Matched)
	fmt.Fprintf(w, "unmatched send/recv pairs: %d (sends %d, recvs %d)\n",
		r.UnmatchedSends+r.UnmatchedRecvs, r.UnmatchedSends, r.UnmatchedRecvs)
	fmt.Fprintf(w, "clock offsets (add to local time; anchor = lowest rank):\n")
	for _, o := range r.Offsets {
		src := fmt.Sprintf("%d paired messages", o.Samples)
		if o.Samples == 0 {
			src = "anchor/hello fallback"
		}
		fmt.Fprintf(w, "  rank %d: %+0.3f ms (%s)\n", o.Rank, ms(o.OffsetNanos), src)
	}
	fmt.Fprintf(w, "per-(rank, level) comm vs compute:\n")
	fmt.Fprintf(w, "  %-5s %-6s %7s %7s %10s %12s %12s\n",
		"rank", "level", "sends", "recvs", "KiB", "blocked ms", "kernel ms")
	for _, s := range r.Levels {
		fmt.Fprintf(w, "  %-5d %-6d %7d %7d %10.1f %12.3f %12.3f\n",
			s.Rank, s.Level, s.Sends, s.Recvs, float64(s.Bytes)/1024, ms(s.BlockedNanos), ms(s.KernelNanos))
	}
	for _, it := range r.Iters {
		fmt.Fprintf(w, "iteration %d: straggler rank %d (blocked min %.3f ms, max %.3f ms, skew %.3f ms)\n",
			it.Iter, it.Straggler, ms(it.MinBlockedNanos), ms(it.MaxBlockedNanos), ms(it.SkewNanos))
	}
	fmt.Fprintf(w, "overlap efficiency: %.3f (exposed %.3f ms of %.3f ms aligned comm windows)\n",
		r.OverlapEfficiency, ms(r.ExposedNanos), ms(r.WindowNanos))
	if r.SolveNanos > 0 {
		// Blocked time also covers the set-up exchange (zran3's
		// candidate swap before the timed solve), so the share can
		// exceed 100%.
		fmt.Fprintf(w, "total blocked: %.3f ms incl. setup; solve wall %.3f ms; comm share %.1f%% of %d × wall\n",
			ms(r.TotalBlockedNanos), ms(r.SolveNanos), 100*r.CommShare, r.Ranks)
	} else {
		fmt.Fprintf(w, "total blocked: %.3f ms\n", ms(r.TotalBlockedNanos))
	}
}
