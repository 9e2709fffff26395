package mgmpi

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/array"
	"repro/internal/mpi"
	"repro/internal/mpinet"
	"repro/internal/nas"
)

// solveTCP runs one solve over an established mesh, every rank a
// goroutine, fails the test if a rank panics or does not verify, and
// returns the ranks' solvers.
func solveTCP(t *testing.T, class nas.Class, mesh []*mpinet.Transport, overlap bool) []*Solver {
	t.Helper()
	var wg sync.WaitGroup
	solvers := make([]*Solver, len(mesh))
	for r, tr := range mesh {
		s, err := NewWithTransport(class, tr)
		if err != nil {
			t.Fatal(err)
		}
		s.Overlap = overlap
		solvers[r] = s
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("rank %d: %v", r, p)
				}
			}()
			rnm2, _ := s.RunRank()
			if verified, ok := class.Verify(rnm2); !ok || !verified {
				t.Errorf("rank %d: rnm2 %.13e did not verify", r, rnm2)
			}
		}(r)
	}
	wg.Wait()
	return solvers
}

// meshTraffic sums the ranks' counters.
func meshTraffic(mesh []*mpinet.Transport) (s mpi.Stats) {
	for _, tr := range mesh {
		st := tr.Stats()
		s.Messages += st.Messages
		s.Bytes += st.Bytes
		s.WireBytes += st.WireBytes
	}
	return s
}

// TestWarmTCPSolveAllocs pins the heap traffic of a warm 2-rank TCP solve
// at class S, under both exchange modes. What a solve allocates is its
// rank state — the grids of both ranks, the allgather's pack scratch, the
// norm partials, and the line buffers of a new solver's kernels — plus
// small objects: the closures of the operator calls, a fixed number per
// V-cycle, and a fixed number per message (the timer of a receive that
// waits; none on the fast path). Nothing grows with a halo payload: the
// per-message budget is small against the payload the solve moves.
func TestWarmTCPSolveAllocs(t *testing.T) {
	if testing.Short() {
		// Every race leg of CI runs -short, and the deltas below are the
		// whole process's: the race runtime and goroutines left by earlier
		// tests allocate too.
		t.Skip("process-wide MemStats budget: not under -short (the race legs)")
	}
	// Measured, both legs alike (30 runs each, 2-vCPU x86-64, Go 1.24): at
	// most 349 objects and 151 KB (median 345 and 95 KB) beyond the rank
	// state for 4 V-cycles and 28 messages, so about 90 objects and 35 KB
	// per V-cycle (the operator closures, the size-class rounding of the
	// grids, and reset's candidate lists). Per message, a
	// 2-rank TCP ping-pong whose every Recv waits allocates 2.7-3.0
	// objects and 220-250 B (the wait's timer); the overlapped leg
	// allocates nothing more than the synchronous one.
	const (
		objectsPerCycle   = 128
		bytesPerCycle     = 40000
		objectsPerMessage = 4
		bytesPerMessage   = 300
	)
	class := nas.ClassS
	mesh := tcpMesh(t, 2)

	// The rank state, by construction: newRankState's grids and norm
	// partials and the scratch the allgather packs its box into.
	var stateBytes, stateObjects uint64
	for r := range mesh {
		st := newRankState(rankComm(2, r), class)
		for _, grids := range []map[int]*array.Array{st.u, st.r, {0: st.v, 1: st.whole}} {
			for _, a := range grids {
				stateBytes += 8 * uint64(a.Size())
				stateObjects += 3 // header, shape, data
			}
		}
		g := st.r[st.lcd-1].Shape()
		for _, n := range []int{cap(st.planes), len(st.planeMax), len(st.planeTot), (g[0] - 2) * (g[1] - 2) * (g[2] - 2)} {
			if n > 0 {
				stateBytes += 8 * uint64(n)
				stateObjects++
			}
		}
	}
	cycles := uint64(class.Iter)

	for _, overlap := range []bool{false, true} {
		solveTCP(t, class, mesh, overlap) // warm the transports' pools
		runtime.GC()
		var before, after runtime.MemStats
		traffic := meshTraffic(mesh)
		runtime.ReadMemStats(&before)
		solvers := solveTCP(t, class, mesh, overlap)
		runtime.ReadMemStats(&after)
		now := meshTraffic(mesh)
		msgs, payload := now.Messages-traffic.Messages, now.Bytes-traffic.Bytes
		stateBytes, stateObjects := stateBytes, stateObjects
		for _, s := range solvers {
			lines := s.mem.Stats()
			stateBytes += lines.BytesAllocated
			stateObjects += lines.Allocs
		}

		bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		t.Logf("overlap=%v: %d V-cycles, %d messages, %d payload bytes; allocated %d bytes (%d rank state) in %d objects (%d rank state)",
			overlap, cycles, msgs, payload, bytes, stateBytes, objects, stateObjects)
		if limit := stateBytes + cycles*bytesPerCycle + msgs*bytesPerMessage; bytes > limit {
			t.Errorf("overlap=%v: warm solve allocated %d bytes, budget %d (rank state %d + %d V-cycles × %d + %d messages × %d)",
				overlap, bytes, limit, stateBytes, cycles, bytesPerCycle, msgs, bytesPerMessage)
		}
		if limit := stateObjects + cycles*objectsPerCycle + msgs*objectsPerMessage; objects > limit {
			t.Errorf("overlap=%v: warm solve allocated %d objects, budget %d (rank state %d + %d V-cycles × %d + %d messages × %d)",
				overlap, objects, limit, stateObjects, cycles, objectsPerCycle, msgs, objectsPerMessage)
		}
		if 2*msgs*bytesPerMessage > payload {
			t.Errorf("overlap=%v: the message budget (%d × %d B) is not small against the payload (%d B)",
				overlap, msgs, bytesPerMessage, payload)
		}
	}
}

// TestTrafficExact pins the exact rows of a 2-rank TCP solve, under both
// exchange modes: S 28 messages and 427 800 payload bytes, W 564 and
// 16 162 200 — what closedForm gives too — with the frame overhead on top
// for the wire. How a message is built and written never changes which
// messages exist or what is on the wire. Class W is the benchmark's dist_W2
// workload and is left out under -short.
func TestTrafficExact(t *testing.T) {
	const frameOverhead = 20 // mpinet's header and checksum, per message
	mesh := tcpMesh(t, 2)
	for _, c := range []struct {
		class           nas.Class
		messages, bytes uint64
	}{{nas.ClassS, 28, 427800}, {nas.ClassW, 564, 16162200}} {
		if c.class.Name == 'W' && testing.Short() {
			continue
		}
		if messages, bytes := closedForm(c.class, 2, 5); messages != c.messages || bytes != c.bytes {
			t.Errorf("class %c: the closed form says %d messages, %d payload bytes; pinned %d, %d",
				c.class.Name, messages, bytes, c.messages, c.bytes)
		}
		want := [3]uint64{c.messages, c.bytes, c.bytes + frameOverhead*c.messages}
		for _, overlap := range []bool{false, true} {
			before := meshTraffic(mesh)
			solveTCP(t, c.class, mesh, overlap)
			after := meshTraffic(mesh)
			got := [3]uint64{after.Messages - before.Messages, after.Bytes - before.Bytes, after.WireBytes - before.WireBytes}
			if got != want {
				t.Errorf("class %c overlap=%v: messages, payload bytes, wire bytes = %v, want %v", c.class.Name, overlap, got, want)
			}
		}
	}
}

// TestResetEqualsSerialZran3 runs reset — each rank scans its share of
// zran3's planes, the ranks swap candidates, each writes the charges in
// its slab — on 1 to 8 ranks over channels and on 2 ranks over TCP, from
// slabs that hold garbage, and requires
// every rank's v, halo for halo, to be its window of the serial
// nas.Zran3 grid bit for bit.
func TestResetEqualsSerialZran3(t *testing.T) {
	for _, class := range []nas.Class{nas.ClassS, nas.ClassW} {
		full := array.New(class.ExtShape(class.LT()))
		nas.Zran3(full, class.N)
		fs := full.Shape()
		check := func(t *testing.T, c *mpi.Comm) {
			st := newRankState(c, class)
			for i := range st.v.Data() {
				st.v.Data()[i] = math.NaN()
			}
			st.reset()
			lo, hi := st.rankBoxOf(st.lt, c.Rank())
			for x := range lo {
				lo[x], hi[x] = lo[x]-1, hi[x]+1
			}
			want := packBox(nil, full.Data(), fs[1], fs[2], lo, hi)
			for i, v := range st.v.Data() {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					t.Errorf("class %c ranks %d rank %d: v value %d is %v, the serial zran3 grid has %v",
						class.Name, c.Size(), c.Rank(), i, v, want[i])
					return
				}
			}
		}
		for _, ranks := range []int{1, 2, 4, 8} {
			mpi.NewWorld(ranks).Run(func(c *mpi.Comm) { check(t, c) })
		}
		var wg sync.WaitGroup
		for _, tr := range tcpMesh(t, 2) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("class %c rank %d over TCP: %v", class.Name, tr.Rank(), p)
					}
				}()
				check(t, mpi.NewComm(tr))
			}()
		}
		wg.Wait()
	}
}

// TestPayloadLengthChecked: a payload of the wrong length — what a peer
// built for another set-up protocol sends — fails naming the rank and the
// length, whether it is short or long, instead of an index panic or a
// partial copy.
func TestPayloadLengthChecked(t *testing.T) {
	st := newRankState(rankComm(1, 0), nas.ClassS)
	d := st.v.Data()
	shp := st.v.Shape()
	lo, hi := [3]int{1, 1, 1}, [3]int{2, 2, 2} // 8 values
	for _, c := range []struct {
		name string
		run  func()
		want string
	}{
		{"short box", func() { st.unpack(d, shp[1], shp[2], lo, hi, make([]float64, 7)) }, "rank 0: payload of 7 values for a box of 8"},
		{"long box", func() { st.unpack(d, shp[1], shp[2], lo, hi, make([]float64, 9)) }, "rank 0: payload of 9 values for a box of 8"},
		{"long charges", func() { st.unpackCandidates(1, make([]float64, 4096)) }, "rank 0: charge message of 4096 values from rank 1, want 40"},
		{"short charges", func() { st.unpackCandidates(1, make([]float64, 39)) }, "rank 0: charge message of 39 values from rank 1, want 40"},
	} {
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), c.want) {
					t.Errorf("%s: panic %v, want one containing %q", c.name, p, c.want)
				}
			}()
			c.run()
		}()
	}
}
