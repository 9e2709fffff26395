package harness

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/mgmpi"
	"repro/internal/nas"
)

// DistConfig describes a multi-process distributed run: N cmd/mgrank
// processes on localhost, meshed over TCP.
type DistConfig struct {
	// Binary is the path to a built cmd/mgrank executable.
	Binary string
	// Class is the NPB size class to solve.
	Class nas.Class
	// Ranks is the world size (one process per rank).
	Ranks int
	// Timeout is the per-rank I/O deadline (mgrank -timeout); zero
	// means 30s. The whole run is additionally bounded by twice this
	// plus a launch allowance, so a wedged world returns, not hangs.
	Timeout time.Duration
	// Overlap selects the overlapped halo exchange (mgrank -overlap);
	// the solve must stay bit-identical to the synchronous path.
	Overlap bool
	// ExtraArgs, when non-nil, appends per-rank flags — fault-injection
	// tests use it to pass -die-after-iter to one rank.
	ExtraArgs func(rank int) []string
}

// DistRank is one rank's observed outcome.
type DistRank struct {
	Rank     int
	ExitCode int
	Stdout   string
	Stderr   string
	// Result is the parsed -json report; nil when the rank exited
	// without one (it died or failed before the solve completed).
	Result *mgmpi.RankReport
}

// runDistributed launches cfg.Ranks mgrank processes on localhost —
// rank 0 on an ephemeral rendezvous port, the rest joining the address
// it prints — waits for all of them, and returns the per-rank
// outcomes. It errors only on launch-level failures (missing binary,
// no rendezvous address, watchdog expiry); a rank failing its solve is
// reported in its DistRank, which is the point of the fault-injection
// tests.
func runDistributed(cfg DistConfig) ([]DistRank, error) {
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("harness: distributed run needs at least 1 rank, got %d", cfg.Ranks)
	}
	timeout := cfg.Timeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*timeout+60*time.Second)
	defer cancel()

	args := func(rank int) []string {
		a := []string{
			"-rank", fmt.Sprint(rank),
			"-np", fmt.Sprint(cfg.Ranks),
			"-class", string(cfg.Class.Name),
			"-timeout", timeout.String(),
			"-json",
		}
		if rank == 0 {
			a = append(a, "-addr", "127.0.0.1:0")
		}
		if cfg.Overlap {
			a = append(a, "-overlap")
		}
		if cfg.ExtraArgs != nil {
			a = append(a, cfg.ExtraArgs(rank)...)
		}
		return a
	}

	cmds := make([]*exec.Cmd, cfg.Ranks)
	stdouts := make([]*bytes.Buffer, cfg.Ranks)
	stderrs := make([]*bytes.Buffer, cfg.Ranks)

	// Rank 0 first: its stdout leads with "MGRANK LISTEN <addr>", the
	// rendezvous address the other ranks need.
	cmd0 := exec.CommandContext(ctx, cfg.Binary, args(0)...)
	pipe, err := cmd0.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stdouts[0], stderrs[0] = &bytes.Buffer{}, &bytes.Buffer{}
	cmd0.Stderr = stderrs[0]
	if err := cmd0.Start(); err != nil {
		return nil, fmt.Errorf("harness: starting rank 0 (%s): %w", cfg.Binary, err)
	}
	cmds[0] = cmd0
	sc := bufio.NewScanner(pipe)
	addr := ""
	for sc.Scan() {
		line := sc.Text()
		if a, ok := strings.CutPrefix(line, "MGRANK LISTEN "); ok {
			addr = a
			break
		}
		stdouts[0].WriteString(line + "\n")
	}
	rest := make(chan struct{})
	go func() {
		defer close(rest)
		io.Copy(stdouts[0], pipe)
	}()
	if addr == "" && cfg.Ranks > 1 {
		cmd0.Process.Kill()
		<-rest
		cmd0.Wait()
		return nil, fmt.Errorf("harness: rank 0 never printed its rendezvous address (stderr: %s)",
			strings.TrimSpace(stderrs[0].String()))
	}

	for rank := 1; rank < cfg.Ranks; rank++ {
		cmd := exec.CommandContext(ctx, cfg.Binary, append(args(rank), "-join", addr)...)
		stdouts[rank], stderrs[rank] = &bytes.Buffer{}, &bytes.Buffer{}
		cmd.Stdout, cmd.Stderr = stdouts[rank], stderrs[rank]
		if err := cmd.Start(); err != nil {
			for r := 0; r < rank; r++ {
				cmds[r].Process.Kill()
			}
			<-rest
			for r := 0; r < rank; r++ {
				cmds[r].Wait()
			}
			return nil, fmt.Errorf("harness: starting rank %d: %w", rank, err)
		}
		cmds[rank] = cmd
	}

	results := make([]DistRank, cfg.Ranks)
	for rank, cmd := range cmds {
		if rank == 0 {
			// os/exec: every read from a StdoutPipe must finish before
			// Wait, which closes the pipe under an unfinished read and
			// truncates the report.
			<-rest
		}
		err := cmd.Wait()
		res := DistRank{
			Rank:   rank,
			Stdout: stdouts[rank].String(),
			Stderr: stderrs[rank].String(),
		}
		if ee, ok := err.(*exec.ExitError); ok {
			res.ExitCode = ee.ExitCode()
		} else if err != nil {
			res.ExitCode = -1
			res.Stderr += "\n" + err.Error()
		}
		if ctx.Err() != nil {
			return nil, fmt.Errorf("harness: distributed run exceeded its watchdog (%v): rank %d stderr: %s",
				2*timeout+60*time.Second, rank, strings.TrimSpace(res.Stderr))
		}
		// The JSON report is the last line of stdout (rank 0's LISTEN
		// line was consumed above).
		lines := strings.Split(strings.TrimSpace(res.Stdout), "\n")
		if last := lines[len(lines)-1]; strings.HasPrefix(last, "{") {
			var dr mgmpi.RankReport
			if err := json.Unmarshal([]byte(last), &dr); err == nil {
				res.Result = &dr
			}
		}
		results[rank] = res
	}
	return results, nil
}

// checkDistributed asserts the acceptance bar of a healthy distributed
// run against the in-process channel-transport solve of the same class,
// rank count, overlap and threads: every rank exited 0 with a parsed
// report and passed NPB verification, every rank's rnm2 is
// bit-identical to the channel solve's, and the ranks' message and
// payload totals equal the channel world's — same algorithm, same
// decomposition. It returns the per-rank results and the channel
// solve's report, whose Stats are the whole world's totals.
func checkDistributed(cfg DistConfig) ([]DistRank, mgmpi.RankReport, error) {
	results, err := runDistributed(cfg)
	if err != nil {
		return nil, mgmpi.RankReport{}, err
	}
	ref := mgmpi.New(cfg.Class, cfg.Ranks)
	ref.Overlap = cfg.Overlap
	rnm2, rnmu := ref.Run()
	want := ref.Report(0, rnm2, rnmu, 0)
	var msgs, payload uint64
	for _, r := range results {
		switch {
		case r.ExitCode != 0:
			return results, want, fmt.Errorf("rank %d exited %d: %s", r.Rank, r.ExitCode, strings.TrimSpace(r.Stderr))
		case r.Result == nil:
			return results, want, fmt.Errorf("rank %d produced no JSON report: %q", r.Rank, r.Stdout)
		case !r.Result.Verified:
			return results, want, fmt.Errorf("rank %d failed NPB verification (rnm2 %v)", r.Rank, r.Result.Rnm2)
		case r.Result.Rnm2Bits != want.Rnm2Bits:
			return results, want, fmt.Errorf("rank %d rnm2 %x differs from channel transport %x",
				r.Rank, r.Result.Rnm2, want.Rnm2)
		}
		msgs += r.Result.Messages
		payload += r.Result.Bytes
	}
	if msgs != want.Messages || payload != want.Bytes {
		return results, want, fmt.Errorf("communication volume diverged: tcp %d msgs/%d B, channel %d msgs/%d B",
			msgs, payload, want.Messages, want.Bytes)
	}
	return results, want, nil
}

// RunFigDist runs the channel-vs-TCP transport comparison for each
// class: the same slab-decomposed solve over the in-process channel
// world and over ranks mgrank processes, reporting message counts,
// payload and wire volume, and the bit-exactness of the result — the
// EXPERIMENTS.md transport table and the CI distributed smoke test.
// With overlap set both worlds run the overlapped halo exchange,
// which ships the same messages — the volume gate is unchanged.
func RunFigDist(w io.Writer, binary string, classes []nas.Class, ranks int, overlap bool) error {
	mode := ""
	if overlap {
		mode = ", overlapped exchange (-overlap)"
	}
	fmt.Fprintf(w, "Distributed transport comparison — %d ranks, channel (in-process) vs TCP (multi-process)%s\n", ranks, mode)
	fmt.Fprintf(w, "%-8s %-9s %-9s %12s %14s %14s %12s\n", "class", "transport", "kernels", "messages", "payload", "wire", "rnm2")
	for _, class := range classes {
		results, ch, err := checkDistributed(DistConfig{Binary: binary, Class: class, Ranks: ranks, Overlap: overlap})
		if err != nil {
			return fmt.Errorf("class %c: %w", class.Name, err)
		}
		fmt.Fprintf(w, "%-8c %-9s %-9s %12d %11.2f MB %14s %12.6e\n",
			class.Name, "channel", ch.Variant, ch.Messages, float64(ch.Bytes)/1e6, "—", ch.Rnm2)
		var msgs, payload, wire uint64
		for _, r := range results {
			msgs += r.Result.Messages
			payload += r.Result.Bytes
			wire += r.Result.WireBytes
		}
		fmt.Fprintf(w, "%-8c %-9s %-9s %12d %11.2f MB %11.2f MB %12.6e\n",
			class.Name, "tcp", results[0].Result.Variant, msgs, float64(payload)/1e6, float64(wire)/1e6, results[0].Result.Rnm2)
		fmt.Fprintf(w, "  class %c: VERIFICATION SUCCESSFUL on all %d ranks; rnm2 bit-identical to channel transport\n",
			class.Name, ranks)
	}
	fmt.Fprintf(w, "Message counts and payload volume match by construction (same algorithm, same\n")
	fmt.Fprintf(w, "decomposition); TCP additionally pays 20 bytes of framing per message.\n\n")
	return nil
}

// RunFigComm is the FW-3c distributed-observability experiment
// (EXPERIMENTS.md): a traced multi-process TCP solve whose per-rank
// trace files are merged, clock-aligned and analysed. It writes four
// artifacts into outDir —
//
//	rank<N>.jsonl   each rank's raw trace
//	merged.jsonl    their concatenation (mgtrace's input)
//	trace.json      the clock-aligned Perfetto timeline with flow arrows
//	commreport.txt  the skew/overlap report
//
// — and enforces the acceptance gates: the solve stays bit-identical to
// the channel transport with tracing enabled and ships its message and
// payload totals (checkDistributed), every send event pairs
// with exactly one recv (matched count == total transport sends), every
// rank's traced blocked time equals its transport ExchangeNanos to the
// nanosecond, and the aligned Perfetto trace validates.
//
// With overlap set the ranks run the overlapped halo exchange
// (mgrank -overlap) under the same gates.
func RunFigComm(w io.Writer, binary string, class nas.Class, ranks int, overlap bool, outDir string) (metrics.CommReport, error) {
	var rep metrics.CommReport
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return rep, err
	}
	tracePath := func(rank int) string {
		return filepath.Join(outDir, fmt.Sprintf("rank%d.jsonl", rank))
	}
	mode := "synchronous exchange"
	if overlap {
		mode = "overlapped exchange (-overlap)"
	}
	fmt.Fprintf(w, "Distributed observability (FW-3c) — class %c, %d TCP ranks, tracing enabled, %s\n",
		class.Name, ranks, mode)
	results, _, err := checkDistributed(DistConfig{
		Binary: binary, Class: class, Ranks: ranks, Overlap: overlap,
		ExtraArgs: func(rank int) []string { return []string{"-trace", tracePath(rank)} },
	})
	if err != nil {
		return rep, fmt.Errorf("traced distributed run: %w", err)
	}
	fmt.Fprintf(w, "solve verified on all ranks; rnm2 bit-identical to channel transport with tracing on\n")

	// Merge the per-rank streams: tolerant per-file reads (a healthy run
	// has no torn tails, but the reader is the same one mgtrace uses),
	// concatenated into one stream for the analysis passes and re-written
	// as merged.jsonl for offline use.
	var events []metrics.Event
	merged, err := os.Create(filepath.Join(outDir, "merged.jsonl"))
	if err != nil {
		return rep, err
	}
	defer merged.Close()
	menc := json.NewEncoder(merged)
	for rank := 0; rank < ranks; rank++ {
		f, err := os.Open(tracePath(rank))
		if err != nil {
			return rep, err
		}
		evs, torn, err := metrics.ReadEventsTolerant(f)
		f.Close()
		if err != nil {
			return rep, fmt.Errorf("rank %d trace: %w", rank, err)
		}
		if torn > 0 {
			return rep, fmt.Errorf("rank %d trace: %d torn trailing line(s) in a run that exited cleanly", rank, torn)
		}
		for _, e := range evs {
			if err := menc.Encode(e); err != nil {
				return rep, err
			}
		}
		events = append(events, evs...)
	}

	rep = metrics.BuildCommReport(events)
	var totalSends uint64
	for _, r := range results {
		totalSends += r.Result.Messages
	}
	if unmatched := rep.UnmatchedSends + rep.UnmatchedRecvs; unmatched > 0 {
		return rep, fmt.Errorf("%d unmatched send/recv pair(s)", unmatched)
	}
	if uint64(rep.Matched) != totalSends {
		return rep, fmt.Errorf("matched %d pairs but the transports counted %d sends", rep.Matched, totalSends)
	}
	fmt.Fprintf(w, "matched %d send/recv pairs == %d transport sends; 0 unmatched\n", rep.Matched, totalSends)

	// Per-rank attribution gate. Every traced Send/Recv event carries what
	// the transport charged that call to ExchangeNanos, so the traced
	// blocked time must equal ExchangeNanos to the nanosecond: any gap is
	// an event lost, duplicated or charged twice.
	blockedByRank := map[int]int64{}
	for _, l := range rep.Levels {
		blockedByRank[l.Rank] += l.BlockedNanos
	}
	for _, r := range results {
		traced, wire := blockedByRank[r.Rank], r.Result.ExchangeNanos
		if traced != wire {
			return rep, fmt.Errorf("rank %d: traced blocked time %d ns != transport ExchangeNanos %d ns",
				r.Rank, traced, wire)
		}
		fmt.Fprintf(w, "rank %d blocked-time attribution: traced %d ns vs transport %d ns\n",
			r.Rank, traced, wire)
	}

	ct := metrics.ChromeTraceAligned(events, metrics.OffsetMap(rep.Offsets))
	if err := ct.Validate(); err != nil {
		return rep, fmt.Errorf("aligned Perfetto trace invalid: %w", err)
	}
	pf, err := os.Create(filepath.Join(outDir, "trace.json"))
	if err != nil {
		return rep, err
	}
	enc := json.NewEncoder(pf)
	enc.SetIndent("", " ")
	if err := enc.Encode(ct); err != nil {
		pf.Close()
		return rep, err
	}
	if err := pf.Close(); err != nil {
		return rep, err
	}

	rf, err := os.Create(filepath.Join(outDir, "commreport.txt"))
	if err != nil {
		return rep, err
	}
	rep.WriteText(io.MultiWriter(w, rf))
	if err := rf.Close(); err != nil {
		return rep, err
	}
	fmt.Fprintf(w, "artifacts in %s: rank*.jsonl, merged.jsonl, trace.json (Perfetto), commreport.txt\n\n", outDir)
	return rep, nil
}
