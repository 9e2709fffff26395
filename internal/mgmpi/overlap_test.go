package mgmpi

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/mpinet"
	"repro/internal/nas"
	"repro/internal/sched"
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

// wantBitsEnv carries the parent's reference bits to the child processes
// TestOverlapBitIdentical re-runs itself in under other kernel backends.
const wantBitsEnv = "MGMPI_TEST_WANT_BITS"

// TestOverlapBitIdentical is the differential acceptance test of the
// distributed path: the overlapped halo exchange, the hybrid thread
// fan-out, the transport and the plane-kernel backend are pure schedule
// and speed choices, so every intermediate rnm2 must be bitwise identical
// to the synchronous single-threaded 1-rank solve — across rank counts,
// thread counts, both exchange modes and both transports, and (the backend
// being fixed per process) in child processes forced to the scalar,
// buffered and simd backends and to simd declining to the buffered rows
// (MG_SIMD_DISABLE=1).
func TestOverlapBitIdentical(t *testing.T) {
	var want []uint64
	child := os.Getenv(wantBitsEnv) != ""
	if child {
		for _, f := range strings.Split(os.Getenv(wantBitsEnv), ",") {
			b, err := strconv.ParseUint(f, 16, 64)
			if err != nil {
				t.Fatalf("%s: %v", wantBitsEnv, err)
			}
			want = append(want, b)
		}
	} else {
		want = iterBits(t, nas.ClassS, config{ranks: 1, threads: 1})
	}
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
							t.Fatalf("%s: norm %d = %016x, want %016x (not bit-identical)",
								c, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
	if child || testing.Short() {
		return
	}
	hex := make([]string, len(want))
	for i, b := range want {
		hex[i] = strconv.FormatUint(b, 16)
	}
	var base []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "MG_FORCE_VARIANT=") && !strings.HasPrefix(kv, "MG_SIMD_DISABLE=") {
			base = append(base, kv)
		}
	}
	base = append(base, wantBitsEnv+"="+strings.Join(hex, ","))
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
		if st.BlockedNanos() != st.ExchangeNanos {
			t.Errorf("rank %d: per-peer blocked %d != ExchangeNanos %d",
				rank, st.BlockedNanos(), st.ExchangeNanos)
		}
	}
}

// Overlap requires a slab decomposition: the interior/boundary split
// only hides the axis-0 exchange, so a 3-D processor grid must be
// rejected loudly, not silently run a half-overlapped solve.
func TestOverlapNonSlabPanics(t *testing.T) {
	s := New3D(nas.ClassS, 2, 2, 1)
	s.Overlap = true
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("overlap on a non-slab decomposition did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "slab") {
			t.Fatalf("panic %q does not name the slab requirement", msg)
		}
	}()
	s.Run()
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
	events, err := metrics.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
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

// TestOverlapSendsPrecedeInterior pins the overlapped comm3's schedule,
// which bit-identity cannot see: on every rank, at every distributed
// level and with the plane loop inline or fanned over a pool, the boundary
// planes are computed first, then both faces are sent (up, then down),
// then every interior plane is computed, and only then are both halos
// received (from down, then from up).
func TestOverlapSendsPrecedeInterior(t *testing.T) {
	for _, class := range []nas.Class{nas.ClassS, nas.ClassW} {
		for _, ranks := range []int{2, 4} {
			for _, threads := range []int{1, 2} {
				mpi.NewWorld(ranks).Run(func(c *mpi.Comm) {
					log := &orderLog{}
					st := newRankState(mpi.NewComm(recordingTransport{c.Transport(), log}), class, [3]int{ranks, 1, 1})
					st.overlap = true
					if threads > 1 {
						st.pool = sched.NewPool(threads)
						defer st.pool.Close()
					}
					up, down := st.neighbour(0, +1), st.neighbour(0, -1)
					for l := st.lcd; l <= st.lt; l++ {
						a := st.u[l]
						log.ops = nil
						st.fusedComm3(a, func(p core.PlaneSpan) {
							for i3 := p.Lo; i3 <= p.Hi; i3++ {
								log.add("plane %03d", i3)
							}
						})
						boundary, interior := core.SplitPlanes(a.Shape()[0])
						var want []string
						for _, i3 := range boundary {
							want = append(want, fmt.Sprintf("plane %03d", i3))
						}
						want = append(want, fmt.Sprintf("send %d/%d", up, tagHaloBase), fmt.Sprintf("send %d/%d", down, tagHaloBase+1))
						lo := len(want)
						for i3 := interior.Lo; i3 <= interior.Hi; i3++ {
							want = append(want, fmt.Sprintf("plane %03d", i3))
						}
						want = append(want, fmt.Sprintf("recv %d/%d", down, tagHaloBase), fmt.Sprintf("recv %d/%d", up, tagHaloBase+1))
						got := log.ops
						if len(got) == len(want) { // the pool computes interior planes in any order
							sort.Strings(got[lo : lo+interior.Count()])
						}
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Errorf("class %c ranks=%d threads=%d rank %d level %d: order\n%v\nwant\n%v",
								class.Name, ranks, threads, c.Rank(), l, got, want)
						}
					}
				})
			}
		}
	}
}
