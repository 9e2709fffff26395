package mgmpi

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/aplib"
	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/mpinet"
	"repro/internal/nas"
	"repro/internal/sched"
	wl "repro/internal/withloop"
)

// config is one row of the bit-identity matrix.
type config struct {
	ranks, threads int
	overlap, tcp   bool
}

func (c config) String() string {
	transport := "channel"
	if c.tcp {
		transport = "tcp"
	}
	return fmt.Sprintf("ranks=%d threads=%d overlap=%v %s", c.ranks, c.threads, c.overlap, transport)
}

// tcpMesh boots ranks mpinet endpoints meshed over loopback TCP.
func tcpMesh(t *testing.T, ranks int) []*mpinet.Transport {
	t.Helper()
	cfg := mpinet.Config{Size: ranks, Addr: "127.0.0.1:0", Class: 'S', IOTimeout: 20 * time.Second}
	rz, err := mpinet.Listen(cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	mesh := make([]*mpinet.Transport, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 1; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := cfg
			c.Rank, c.Addr = r, rz.Addr()
			mesh[r], errs[r] = mpinet.Join(c)
		}(r)
	}
	mesh[0], errs[0] = rz.Accept()
	wg.Wait()
	t.Cleanup(func() {
		for _, tr := range mesh {
			if tr != nil {
				tr.Close()
			}
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("mesh bootstrap rank %d: %v", r, err)
		}
	}
	return mesh
}

// iterBits runs one configuration and returns the bit patterns of every
// intermediate and final rnm2 the solve reports (on rank 0).
func iterBits(t *testing.T, class nas.Class, c config) []uint64 {
	t.Helper()
	var bits []uint64
	setup := func(s *Solver) {
		s.Overlap = c.overlap
		s.Threads = c.threads
		// Collective: every rank enables the reductions, rank 0 is called.
		s.IterNorms = func(_ int, rnm2, _ float64) {
			bits = append(bits, math.Float64bits(rnm2))
		}
	}
	var rnm2 float64
	if c.tcp {
		final := make([]float64, c.ranks)
		var wg sync.WaitGroup
		for r, tr := range tcpMesh(t, c.ranks) {
			s, err := NewWithTransport(class, tr)
			if err != nil {
				t.Fatal(err)
			}
			setup(s)
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("%s: rank %d: %v", c, r, p)
					}
				}()
				final[r], _ = s.RunRank()
			}(r)
		}
		wg.Wait()
		rnm2 = final[0]
	} else {
		s := New(class, c.ranks)
		setup(s)
		rnm2, _ = s.Run()
	}
	if verified, ok := class.Verify(rnm2); !ok || !verified {
		t.Fatalf("%s: rnm2 %.13e did not verify", c, rnm2)
	}
	return append(bits, math.Float64bits(rnm2))
}

// coreIterBits returns internal/core's rnm2 after the initial residual and
// after every V-cycle, as bits: the iteration MGrid runs, one V-cycle at a
// time — r = v − A·u, u + VCycle(r), whose finest level is the folded u +
// (z + S·(r − A·z)) — with the residual norm of every iterate.
func coreIterBits(class nas.Class) []uint64 {
	env := wl.Default()
	s := core.New(env)
	s.Smoother = class.SmootherCoeffs()
	v := env.NewArray(class.ExtShape(class.LT()))
	nas.Zran3(v, class.N)
	u := env.NewArray(v.Shape())
	var bits []uint64
	for it := 0; ; it++ {
		rnm2, _ := s.ResidNorm(v, u, class.N)
		bits = append(bits, math.Float64bits(rnm2))
		if it == class.Iter {
			return bits
		}
		au := s.Resid(u)
		r := aplib.Sub(env, v, au)
		z := s.VCycle(r)
		next := aplib.Add(env, u, z)
		for _, a := range []*array.Array{au, r, z, u} {
			env.Release(a)
		}
		u = next
	}
}

// TestOverlapBitIdentical is the differential acceptance test of the
// distributed path: the overlapped halo exchange, the hybrid thread
// fan-out, the transport and the plane-kernel backend are pure schedule
// and speed choices, and the slab ranks run core's legs, so every
// intermediate rnm2 must be bitwise core's, computed in this process —
// across rank counts, thread counts, both exchange modes and both
// transports, and (the backend being fixed per process) in child processes
// forced to the scalar, buffered and simd backends and to simd declining
// to the buffered rows (MG_SIMD_DISABLE=1).
func TestOverlapBitIdentical(t *testing.T) {
	want := coreIterBits(nas.ClassS)
	want = append(want, want[len(want)-1]) // iterBits ends with the returned rnm2
	for _, ranks := range []int{1, 2, 4} {
		for _, threads := range []int{1, 2} {
			for _, overlap := range []bool{false, true} {
				for _, tcp := range []bool{false, true} {
					if tcp && ranks == 1 {
						continue // one rank sends nothing: no transport to vary
					}
					c := config{ranks, threads, overlap, tcp}
					got := iterBits(t, nas.ClassS, c)
					if len(got) != len(want) {
						t.Fatalf("%s: %d norms, want %d", c, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s: norm %d = %016x, core's %016x (not bit-identical)",
								c, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
	if os.Getenv("MG_FORCE_VARIANT") != "" || testing.Short() {
		return
	}
	var base []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "MG_SIMD_DISABLE=") {
			base = append(base, kv)
		}
	}
	for _, leg := range [][]string{
		{"MG_FORCE_VARIANT=scalar"},
		{"MG_FORCE_VARIANT=buffered"},
		{"MG_FORCE_VARIANT=simd"},
		{"MG_FORCE_VARIANT=simd", "MG_SIMD_DISABLE=1"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestOverlapBitIdentical$", "-test.count=1")
		cmd.Env = append(base[:len(base):len(base)], leg...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("child with %v: %v\n%s", leg, err, out)
		}
	}
}

// The largest slab class S admits, 16 ranks of two planes each, computes
// core's rnm2 after every V-cycle under both exchange modes.
func TestLargestSlabBitIdentical(t *testing.T) {
	want := coreIterBits(nas.ClassS)
	want = append(want, want[len(want)-1]) // iterBits ends with the returned rnm2
	for _, overlap := range []bool{false, true} {
		c := config{ranks: 16, threads: 1, overlap: overlap}
		if got := iterBits(t, nas.ClassS, c); !slices.Equal(got, want) {
			t.Errorf("%s: norms %016x, core's %016x", c, got, want)
		}
	}
}

// At 32 ranks class W keeps levels 1–5 whole, and level 5 (32³) is above
// SAC's sequential threshold, so core's V-cycle fans its planes over each
// rank's two workers there; the norms stay core's.
func TestFannedWholeLevelsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("class W skipped in -short")
	}
	want := coreIterBits(nas.ClassW)
	want = append(want, want[len(want)-1]) // iterBits ends with the returned rnm2
	c := config{ranks: 32, threads: 2}
	if got := iterBits(t, nas.ClassW, c); !slices.Equal(got, want) {
		t.Errorf("%s: norms %016x, core's %016x", c, got, want)
	}
}

// The overlapped exchange ships exactly the synchronous exchange's
// messages — same count, same payload volume — it only moves when they
// are posted and waited.
func TestOverlapCommVolumeMatches(t *testing.T) {
	sync := New(nas.ClassS, 4)
	sync.Run()
	over := New(nas.ClassS, 4)
	over.Overlap = true
	over.Run()
	ss, os := sync.Stats(), over.Stats()
	if ss.Messages != os.Messages || ss.Bytes != os.Bytes {
		t.Fatalf("volume diverged: sync %d msgs/%d B, overlap %d msgs/%d B",
			ss.Messages, ss.Bytes, os.Messages, os.Bytes)
	}
	// Blocked time still decomposes exactly onto the per-peer rows:
	// overlap moves it into the late Recvs, it must not leak out of the
	// stats.
	for rank, st := range over.world.Stats() {
		var blocked int64
		for _, p := range st.Peers {
			blocked += p.SendBlockedNanos + p.RecvBlockedNanos
		}
		if blocked != st.ExchangeNanos {
			t.Errorf("rank %d: per-peer blocked %d != ExchangeNanos %d", rank, blocked, st.ExchangeNanos)
		}
	}
}

// A traced overlap run keeps the observability invariants: the solve
// verifies, per rank the send events equal the transport's message
// count, and every send pairs with exactly one recv under the
// (src, dst, tag, seq) key, with the sends stamped before the interior
// sweep and the recvs after it.
func TestOverlapTracedPairing(t *testing.T) {
	var buf bytes.Buffer
	tr := metrics.NewTracer(&buf)
	s := New(nas.ClassS, 4)
	s.Overlap = true
	s.Trace = tr
	rnm2, _ := s.Run()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if verified, ok := nas.ClassS.Verify(rnm2); !ok || !verified {
		t.Fatalf("traced overlap run did not verify: rnm2 = %.13e", rnm2)
	}
	events, torn, err := metrics.ReadEventsTolerant(&buf)
	if err != nil || torn != 0 {
		t.Fatalf("reading the trace: %d torn lines, err %v", torn, err)
	}
	type pairKey struct {
		src, dst, tag int
		seq           uint64
	}
	sendsByRank := map[int]uint64{}
	sends := map[pairKey]int{}
	recvs := map[pairKey]int{}
	for _, e := range events {
		switch e.Ev {
		case "send":
			sendsByRank[e.Rank]++
			sends[pairKey{e.Rank, e.Peer, e.Tag, e.Seq}]++
		case "recv":
			recvs[pairKey{e.Peer, e.Rank, e.Tag, e.Seq}]++
		}
	}
	for rank, st := range s.world.Stats() {
		if sendsByRank[rank] != st.Messages {
			t.Errorf("rank %d: %d send events != %d messages sent", rank, sendsByRank[rank], st.Messages)
		}
	}
	if len(sends) == 0 {
		t.Fatal("no send events in a traced overlap run")
	}
	for k, n := range sends {
		if n != 1 || recvs[k] != 1 {
			t.Errorf("send %+v seen %d times, matched by %d recvs (want 1/1)", k, n, recvs[k])
		}
	}
	for k := range recvs {
		if sends[k] != 1 {
			t.Errorf("recv %+v has no matching send", k)
		}
	}
}

// orderLog records one rank's exchange calls and computed planes in the
// order they start; the pool's workers log interior planes concurrently.
type orderLog struct {
	mu  sync.Mutex
	ops []string
}

func (l *orderLog) add(format string, args ...any) {
	l.mu.Lock()
	l.ops = append(l.ops, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// recordingTransport logs each Send and Recv before passing it on.
type recordingTransport struct {
	mpi.Transport
	log *orderLog
}

func (r recordingTransport) Send(dst, tag int, data []float64) error {
	r.log.add("send %d/%d", dst, tag)
	return r.Transport.Send(dst, tag, data)
}

func (r recordingTransport) Recv(src, tag int) ([]float64, error) {
	r.log.add("recv %d/%d", src, tag)
	return r.Transport.Recv(src, tag)
}

// TestOverlapSendsPrecedeInterior pins the overlapped exchange's span
// order, which bit-identity cannot see: on every rank, at every distributed
// level, for each halo depth the solve exchanges (the finest u's two planes
// either side, a correction's two below and one above, r's one) and with
// the plane loop inline or fanned over a pool, the spans holding the
// planes that go out are computed first (the bottom span, then the top
// one, or one span when they meet), then both faces are sent (up, then
// down), then every interior plane is computed, and only then are both
// halos received (from down, then from up).
func TestOverlapSendsPrecedeInterior(t *testing.T) {
	for _, class := range []nas.Class{nas.ClassS, nas.ClassW} {
		for _, ranks := range []int{2, 4} {
			for _, threads := range []int{1, 2} {
				mpi.NewWorld(ranks).Run(func(c *mpi.Comm) {
					log := &orderLog{}
					st := newRankState(mpi.NewComm(recordingTransport{c.Transport(), log}), class)
					st.overlap = true
					if threads > 1 {
						st.pool = sched.NewPool(threads)
						defer st.pool.Close()
					}
					up, down := st.neighbour(+1), st.neighbour(-1)
					for l := st.lcd; l <= st.lt; l++ {
						for _, h := range []halo{{2, 2}, {2, 1}, {1, 1}} {
							log.ops = nil
							st.haloed(st.u[l], l, h, func(p core.PlaneSpan) {
								log.add("span %03d-%03d", p.Lo, p.Hi)
							})
							lp := st.local(l)
							var want []string
							if h.above+h.below >= lp {
								want = append(want, fmt.Sprintf("span %03d-%03d", 1, lp))
							} else {
								want = append(want, fmt.Sprintf("span %03d-%03d", 1, h.above), fmt.Sprintf("span %03d-%03d", lp+1-h.below, lp))
							}
							want = append(want, fmt.Sprintf("send %d/%d", up, tagHaloBase), fmt.Sprintf("send %d/%d", down, tagHaloBase+1))
							lo, interior := len(want), core.PlaneSpan{Lo: h.above + 1, Hi: lp - h.below}
							if interior.Count() > 0 {
								want = append(want, fmt.Sprintf("span %03d-%03d", interior.Lo, interior.Hi))
							}
							want = append(want, fmt.Sprintf("recv %d/%d", down, tagHaloBase), fmt.Sprintf("recv %d/%d", up, tagHaloBase+1))
							got := coverSpans(log.ops, lo, len(log.ops)-2)
							if fmt.Sprint(got) != fmt.Sprint(want) {
								t.Errorf("class %c ranks=%d threads=%d rank %d level %d halo %v: order\n%v\nwant\n%v",
									class.Name, ranks, threads, c.Rank(), l, h, got, want)
							}
						}
					}
				})
			}
		}
	}
}

// coverSpans replaces ops[lo:hi], the spans a pool computed in any order,
// by the one span they tile — or leaves them, sorted, when they do not.
func coverSpans(ops []string, lo, hi int) []string {
	if hi <= lo {
		return ops
	}
	mid := append([]string(nil), ops[lo:hi]...)
	sort.Strings(mid)
	first, last, next := -1, -1, -1
	for _, op := range mid {
		var a, b int
		if _, err := fmt.Sscanf(op, "span %d-%d", &a, &b); err != nil || next >= 0 && a != next {
			return append(append(append([]string(nil), ops[:lo]...), mid...), ops[hi:]...)
		}
		if first < 0 {
			first = a
		}
		last, next = b, b+1
	}
	out := append([]string(nil), ops[:lo]...)
	out = append(out, fmt.Sprintf("span %03d-%03d", first, last))
	return append(out, ops[hi:]...)
}
