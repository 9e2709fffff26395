package harness

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/nas"
)

// buildMgrank compiles cmd/mgrank into a temp dir once per test that
// needs it.
func buildMgrank(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("multi-process test skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "mgrank")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/mgrank")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building mgrank: %v\n%s", err, out)
	}
	return bin
}

// noLeak takes the goroutine count now and requires it back within 5 s
// when the test ends: every launched process waited for, every pipe
// reader and in-process reference rank returned.
func noLeak(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		n := runtime.NumGoroutine()
		for n > base && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			n = runtime.NumGoroutine()
		}
		if n > base {
			buf := make([]byte, 1<<16)
			t.Errorf("%d goroutines left, %d at the start:\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
	})
}

// TestRunDistributed is the distributed smoke test: a 4-rank class-S
// solve across real processes over TCP must pass NPB verification on
// every rank with rnm2 bit-identical to the in-process channel world.
func TestRunDistributed(t *testing.T) {
	bin := buildMgrank(t)
	noLeak(t)
	results, _, err := checkDistributed(DistConfig{
		Binary: bin,
		Class:  nas.ClassS,
		Ranks:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Result.Seconds <= 0 {
			t.Errorf("rank %d reported non-positive solve time %v", r.Rank, r.Result.Seconds)
		}
		if r.Result.WireBytes <= r.Result.Bytes && r.Result.Messages > 0 {
			t.Errorf("rank %d wire bytes %d should exceed payload %d (framing)",
				r.Rank, r.Result.WireBytes, r.Result.Bytes)
		}
		// The per-peer breakdown must decompose the aggregates exactly:
		// sent messages sum to the rank's Messages counter.
		if len(r.Result.Peers) == 0 || r.Result.BlockedHist.Count() == 0 {
			t.Errorf("rank %d -json report lacks the per-peer breakdown", r.Rank)
			continue
		}
		var sent uint64
		for _, p := range r.Result.Peers {
			sent += p.SentMsgs
		}
		if sent != r.Result.Messages {
			t.Errorf("rank %d per-peer sent %d != Messages %d", r.Rank, sent, r.Result.Messages)
		}
	}
}

// TestRunFigComm is the distributed-observability acceptance test
// (FW-3c): a traced 4-rank class-S TCP solve, merged and analysed. The
// pairing gate (matched == transport sends), the exact blocked-time
// attribution gate and the Perfetto validation run inside RunFigComm;
// this test additionally checks the artifacts on disk, the CI grep
// phrases, the straggler attribution and the estimator's antisymmetry
// on the real (not synthetic) trace.
func TestRunFigComm(t *testing.T) {
	bin := buildMgrank(t)
	noLeak(t)
	dir := t.TempDir()
	rep, err := RunFigComm(io.Discard, bin, nas.ClassS, 4, false, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ranks != 4 || rep.Matched == 0 || rep.Iterations != nas.ClassS.Iter {
		t.Fatalf("report ranks=%d matched=%d iters=%d", rep.Ranks, rep.Matched, rep.Iterations)
	}
	if len(rep.Iters) != nas.ClassS.Iter {
		t.Fatalf("straggler attribution for %d iterations, want %d", len(rep.Iters), nas.ClassS.Iter)
	}
	for _, it := range rep.Iters {
		if it.Straggler < 0 || it.Straggler > 3 {
			t.Fatalf("iteration %d straggler %d out of range", it.Iter, it.Straggler)
		}
	}
	if rep.OverlapEfficiency < 0 || rep.OverlapEfficiency > 1 {
		t.Fatalf("overlap efficiency %g outside [0,1]", rep.OverlapEfficiency)
	}

	for _, name := range []string{"rank0.jsonl", "rank3.jsonl", "merged.jsonl", "trace.json", "commreport.txt"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Fatalf("artifact %s missing or empty (err %v)", name, err)
		}
	}
	text, err := os.ReadFile(filepath.Join(dir, "commreport.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, phrase := range []string{"unmatched send/recv pairs: 0", "straggler rank"} {
		if !strings.Contains(string(text), phrase) {
			t.Fatalf("commreport.txt missing CI gate phrase %q:\n%s", phrase, text)
		}
	}

	// Antisymmetry on the real trace: every exchanging rank pair's
	// relative offset must negate exactly under swapping.
	mf, err := os.Open(filepath.Join(dir, "merged.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	events, torn, err := metrics.ReadEventsTolerant(mf)
	if err != nil || torn != 0 {
		t.Fatalf("merged trace: torn=%d err=%v", torn, err)
	}
	pairs, us, ur := metrics.PairComms(events)
	if len(us) != 0 || len(ur) != 0 {
		t.Fatalf("unmatched in merged trace: %d sends, %d recvs", len(us), len(ur))
	}
	exchanged := 0
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			ab, nab := metrics.RelativeOffset(pairs, a, b)
			ba, nba := metrics.RelativeOffset(pairs, b, a)
			if nab != nba {
				t.Fatalf("sample counts differ: rel(%d,%d) n=%d, rel(%d,%d) n=%d", a, b, nab, b, a, nba)
			}
			if nab == 0 {
				continue
			}
			exchanged++
			if ab != -ba {
				t.Fatalf("rel(%d,%d)=%d not antisymmetric with rel(%d,%d)=%d", a, b, ab, b, a, ba)
			}
		}
	}
	if exchanged == 0 {
		t.Fatal("no rank pair exchanged traffic")
	}
}

// TestRunFigCommOverlap runs the same traced distributed experiment
// with the overlapped exchange (FW-3d): every gate in RunFigComm —
// bit-identity against the overlapped channel reference, pairing, the
// exact attribution gate, Perfetto validation — must
// hold, and the report's overlap efficiency must stay well-formed.
func TestRunFigCommOverlap(t *testing.T) {
	bin := buildMgrank(t)
	noLeak(t)
	dir := t.TempDir()
	rep, err := RunFigComm(io.Discard, bin, nas.ClassS, 4, true, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ranks != 4 || rep.Matched == 0 {
		t.Fatalf("report ranks=%d matched=%d", rep.Ranks, rep.Matched)
	}
	if rep.OverlapEfficiency < 0 || rep.OverlapEfficiency > 1 {
		t.Fatalf("overlap efficiency %g outside [0,1]", rep.OverlapEfficiency)
	}
	text, err := os.ReadFile(filepath.Join(dir, "commreport.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "overlap efficiency") {
		t.Fatalf("commreport.txt lacks the overlap efficiency line:\n%s", text)
	}
}

// TestDistributedDeadRank is the fault acceptance test: kill one rank
// mid-solve and every survivor must exit non-zero with an error naming
// the dead rank, within the configured deadline — never a hang.
func TestDistributedDeadRank(t *testing.T) {
	bin := buildMgrank(t)
	noLeak(t)
	const victim = 2
	timeout := 5 * time.Second
	start := time.Now()
	results, err := runDistributed(DistConfig{
		Binary:  bin,
		Class:   nas.ClassS,
		Ranks:   4,
		Timeout: timeout,
		ExtraArgs: func(rank int) []string {
			if rank == victim {
				return []string{"-die-after-iter", "2"}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Generous bound: detection must come from the abort cascade or a
	// connection reset, not from waiting out a full solve.
	if elapsed := time.Since(start); elapsed > 3*timeout {
		t.Errorf("run took %v, want well under the watchdog (deadline %v)", elapsed, timeout)
	}
	for _, r := range results {
		if r.Rank == victim {
			if r.ExitCode != 3 {
				t.Errorf("victim rank %d exit code = %d, want 3 (deliberate death)", r.Rank, r.ExitCode)
			}
			continue
		}
		if r.ExitCode == 0 {
			t.Errorf("survivor rank %d exited 0 after a peer died mid-solve", r.Rank)
		}
		if !strings.Contains(r.Stderr, fmt.Sprintf("rank %d", victim)) {
			t.Errorf("survivor rank %d stderr does not name the dead rank %d:\n%s", r.Rank, victim, r.Stderr)
		}
	}
}
