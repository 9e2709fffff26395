package mpinet

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/mpi"
)

// noLeak takes the goroutine count now and requires it back when the test
// ends, after the cleanups registered later have closed the transports:
// Close waits for a transport's readers, and a transport owns nothing else.
func noLeak(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		if n := settleGoroutines(base); n > base {
			buf := make([]byte, 1<<16)
			t.Errorf("%d goroutines left after Close, %d before the transports existed:\n%s",
				n, base, buf[:runtime.Stack(buf, true)])
		}
	})
}

// settleGoroutines waits up to 5s for the goroutine count to drop to want
// (exiting goroutines are still counted for a moment) and returns it.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// localWorld bootstraps a size-rank world over loopback, one transport
// per rank, all in this process. mut (optional) tweaks each rank's
// config before bootstrap.
func localWorld(t *testing.T, size int, mut func(rank int, cfg *Config)) []*Transport {
	t.Helper()
	noLeak(t)
	base := Config{
		Size:        size,
		Addr:        "127.0.0.1:0",
		Class:       'S',
		DialRetries: 20,
		DialBackoff: 20 * time.Millisecond,
		IOTimeout:   10 * time.Second,
	}
	cfg0 := base
	cfg0.Rank = 0
	if mut != nil {
		mut(0, &cfg0)
	}
	rz, err := Listen(cfg0)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	addr := rz.Addr()

	transports := make([]*Transport, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	wg.Add(size)
	go func() {
		defer wg.Done()
		transports[0], errs[0] = rz.Accept()
	}()
	for rank := 1; rank < size; rank++ {
		go func(rank int) {
			defer wg.Done()
			cfg := base
			cfg.Rank = rank
			cfg.Addr = addr
			if mut != nil {
				mut(rank, &cfg)
			}
			transports[rank], errs[rank] = Join(cfg)
		}(rank)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("bootstrap rank %d: %v", rank, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range transports {
			if tr != nil {
				tr.Close()
			}
		}
	})
	return transports
}

func TestBootstrapSingleRank(t *testing.T) {
	world := localWorld(t, 1, nil)
	if world[0].Rank() != 0 || world[0].Size() != 1 {
		t.Fatalf("rank/size = %d/%d", world[0].Rank(), world[0].Size())
	}
}

// TestCleanShutdown: a transport owns one goroutine per peer, its reader
// (frames are written by the goroutine that posts them), and a clean
// Close after traffic leaves none of them behind.
func TestCleanShutdown(t *testing.T) {
	const size = 3
	world := localWorld(t, size, nil)
	if n := settleTransportGoroutines(size * (size - 1)); n != size*(size-1) {
		t.Fatalf("%d transport goroutines for %d transports of %d peers each, want one per peer", n, size, size-1)
	}
	for r, tr := range world {
		if err := tr.Send((r+1)%size, 3, []float64{float64(r)}); err != nil {
			t.Fatal(err)
		}
	}
	for r, tr := range world {
		if got, err := tr.Recv((r+size-1)%size, 3); err != nil || got[0] != float64((r+size-1)%size) {
			t.Fatalf("rank %d: Recv = %v, %v", r, got, err)
		}
	}
	for _, tr := range world {
		tr.Close()
	}
	if n := settleTransportGoroutines(0); n != 0 {
		t.Errorf("%d transport goroutines left after every rank closed", n)
	}
	for r, tr := range world {
		if err := tr.Err(); err != nil {
			t.Errorf("rank %d: a clean shutdown failed the transport: %v", r, err)
		}
	}
}

// settleTransportGoroutines waits up to 5s for the number of goroutines
// inside a Transport method to become want, and returns it.
func settleTransportGoroutines(want int) int {
	count := func() int {
		buf := make([]byte, 1<<20)
		n := 0
		for _, g := range bytes.Split(buf[:runtime.Stack(buf, true)], []byte("\n\n")) {
			if bytes.Contains(g, []byte("mpinet.(*Transport).")) {
				n++
			}
		}
		return n
	}
	deadline := time.Now().Add(5 * time.Second)
	n := count()
	for n != want && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
		n = count()
	}
	return n
}

func TestMeshExchange(t *testing.T) {
	const size = 4
	world := localWorld(t, size, nil)
	var wg sync.WaitGroup
	errCh := make(chan error, size)
	for _, tr := range world {
		wg.Add(1)
		go func(tr *Transport) {
			defer wg.Done()
			me := tr.Rank()
			// Everyone sends to everyone (tag encodes the pair), then
			// receives in rank order — per-pair FIFO plus (source, tag)
			// matching makes this deterministic.
			for dst := 0; dst < size; dst++ {
				if dst == me {
					continue
				}
				payload := []float64{float64(me), float64(dst), 3.25}
				if err := tr.Send(dst, 100*me+dst, payload); err != nil {
					errCh <- fmt.Errorf("rank %d send to %d: %w", me, dst, err)
					return
				}
			}
			for src := 0; src < size; src++ {
				if src == me {
					continue
				}
				got, err := tr.Recv(src, 100*src+me)
				if err != nil {
					errCh <- fmt.Errorf("rank %d recv from %d: %w", me, src, err)
					return
				}
				if len(got) != 3 || got[0] != float64(src) || got[1] != float64(me) || got[2] != 3.25 {
					errCh <- fmt.Errorf("rank %d: bad payload from %d: %v", me, src, got)
					return
				}
			}
		}(tr)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	st := world[0].Stats()
	wantMsgs := uint64(size - 1) // Messages counts sends, matching the channel transport
	if st.Messages != wantMsgs {
		t.Errorf("rank 0 Messages = %d, want %d", st.Messages, wantMsgs)
	}
	wantBytes := uint64((size - 1) * 3 * 8)
	if st.Bytes != wantBytes {
		t.Errorf("rank 0 Bytes = %d, want %d", st.Bytes, wantBytes)
	}
	wantWire := wantBytes + uint64(size-1)*frameOverhead
	if st.WireBytes != wantWire {
		t.Errorf("rank 0 WireBytes = %d, want %d", st.WireBytes, wantWire)
	}
	if st.ExchangeNanos <= 0 {
		t.Errorf("rank 0 ExchangeNanos = %d, want > 0", st.ExchangeNanos)
	}
}

// TestPeerStatsOverTCP checks that the TCP transport's per-(peer, tag)
// rows agree with the aggregate counters, and that the per-peer blocked
// time sums exactly to ExchangeNanos (mpinet counts full call durations
// on both views, so the equality is exact).
func TestPeerStatsOverTCP(t *testing.T) {
	const size = 3
	world := localWorld(t, size, nil)
	var wg sync.WaitGroup
	for _, tr := range world {
		wg.Add(1)
		go func(tr *Transport) {
			defer wg.Done()
			me := tr.Rank()
			for dst := 0; dst < size; dst++ {
				if dst != me {
					tr.Send(dst, 7, make([]float64, 16))
				}
			}
			for src := 0; src < size; src++ {
				if src != me {
					tr.Recv(src, 7)
				}
			}
		}(tr)
	}
	wg.Wait()
	for rank, tr := range world {
		st := tr.Stats()
		if len(st.Peers) != size-1 {
			t.Fatalf("rank %d: %d peer rows, want %d: %+v", rank, len(st.Peers), size-1, st.Peers)
		}
		var sent, recv uint64
		for _, p := range st.Peers {
			if p.Tag != 7 {
				t.Errorf("rank %d: unexpected tag %d", rank, p.Tag)
			}
			sent += p.SentMsgs
			recv += p.RecvMsgs
			if p.SentBytes != 16*8 || p.RecvBytes != 16*8 {
				t.Errorf("rank %d peer %d: bytes %d/%d, want 128/128", rank, p.Peer, p.SentBytes, p.RecvBytes)
			}
		}
		if sent != st.Messages || recv != st.Messages {
			t.Errorf("rank %d: per-peer sent/recv %d/%d != Messages %d", rank, sent, recv, st.Messages)
		}
		if got := st.BlockedNanos(); got != st.ExchangeNanos {
			t.Errorf("rank %d: per-peer blocked %d != ExchangeNanos %d", rank, got, st.ExchangeNanos)
		}
		if st.BlockedHist.Count() != 2*(size-1) {
			t.Errorf("rank %d: blocked hist count %d, want %d", rank, st.BlockedHist.Count(), 2*(size-1))
		}
		// The sender writes its own frame: there is no departure queue to
		// sample (the channel runtime's mailbox depth is pinned in mpi).
		if n := st.QueueDepthHist.Count(); n != 0 {
			t.Errorf("rank %d: %d queue-depth samples from a transport without a queue", rank, n)
		}
	}
}

// TestConcurrentExchange is the -race target: every rank runs two
// goroutines concurrently pushing traffic around the ring in opposite
// directions on distinct tags, exercising the per-peer writer and
// reader loops under contention.
func TestConcurrentExchange(t *testing.T) {
	const size = 4
	const rounds = 50
	world := localWorld(t, size, nil)
	var wg sync.WaitGroup
	errCh := make(chan error, 2*size)
	for _, tr := range world {
		me := tr.Rank()
		right := (me + 1) % size
		left := (me + size - 1) % size
		run := func(sendTo, recvFrom, tag int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				out := []float64{float64(me), float64(i)}
				if err := tr.Send(sendTo, tag, out); err != nil {
					errCh <- fmt.Errorf("rank %d send (tag %d, round %d): %w", me, tag, i, err)
					return
				}
				in, err := tr.Recv(recvFrom, tag)
				if err != nil {
					errCh <- fmt.Errorf("rank %d recv (tag %d, round %d): %w", me, tag, i, err)
					return
				}
				if len(in) != 2 || in[0] != float64(recvFrom) || in[1] != float64(i) {
					errCh <- fmt.Errorf("rank %d tag %d round %d: bad payload %v", me, tag, i, in)
					return
				}
			}
		}
		wg.Add(2)
		go run(right, left, 7)  // clockwise ring
		go run(left, right, 11) // counter-clockwise ring
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestTagMatching checks that a Recv for a specific (source, tag) pair
// is satisfied even when a different tag from the same source arrives
// first — and that the mismatch is reported, since the MG solver's
// communication pattern never actually reorders tags per pair.
func TestTagMatching(t *testing.T) {
	world := localWorld(t, 2, nil)
	done := make(chan error, 1)
	go func() {
		if err := world[1].Send(0, 5, []float64{1}); err != nil {
			done <- err
			return
		}
		done <- world[1].Send(0, 6, []float64{2})
	}()
	if _, err := world[0].Recv(1, 6); err == nil {
		t.Fatal("Recv(tag 6) matched a tag-5 frame without error")
	}
	if err := <-done; err != nil {
		t.Fatalf("sender: %v", err)
	}
}

// TestCommOverTCP runs the mpi.Comm veneer the solver uses over the TCP
// transport, in the shape of mgmpi's norm reduction: every rank sends a
// partial to rank 0, which folds them in rank order and broadcasts the
// result; every rank must receive rank 0's exact values.
func TestCommOverTCP(t *testing.T) {
	const size = 4
	world := localWorld(t, size, nil)
	var wg sync.WaitGroup
	results := make([][]float64, size)
	for _, tr := range world {
		wg.Add(1)
		go func(tr *Transport) {
			defer wg.Done()
			c := mpi.NewComm(tr)
			part := []float64{float64(c.Rank() + 1), -float64(c.Rank())}
			if c.Rank() != 0 {
				c.Send(0, 3, part)
				results[c.Rank()] = c.Broadcast(3, 0, nil)
				return
			}
			sum, low := part[0], part[1]
			for src := 1; src < c.Size(); src++ {
				p := c.Recv(src, 3)
				sum, low = sum+p[0], min(low, p[1])
			}
			results[0] = c.Broadcast(3, 0, []float64{sum, low})
		}(tr)
	}
	wg.Wait()
	for rank, got := range results {
		if len(got) != 2 || got[0] != 10 || got[1] != -3 { // 1+2+3+4, min(0, −1, −2, −3)
			t.Errorf("rank %d: reduced %v, want [10 -3]", rank, got)
		}
	}
}

// On both transports the blocked-time histogram's _sum equals the total of
// the per-peer blocked counters and ExchangeNanos: each is a nanosecond
// count divided by 1e9, so they compare exactly once rounded back to
// nanoseconds.
func TestBlockedSumMatchesPeers(t *testing.T) {
	exchange := func(c *mpi.Comm) {
		peer := 1 - c.Rank()
		for i := 0; i < 5; i++ {
			if c.Rank() == 0 {
				c.Send(peer, 7, make([]float64, 64))
				c.Recv(peer, 7)
			} else {
				c.Recv(peer, 7)
				c.Send(peer, 7, make([]float64, 64))
			}
		}
	}
	ch := mpi.NewWorld(2)
	ch.Run(exchange)
	stats := ch.Stats()
	world := localWorld(t, 2, nil)
	var wg sync.WaitGroup
	for _, tr := range world {
		wg.Add(1)
		go func(tr *Transport) {
			defer wg.Done()
			exchange(mpi.NewComm(tr))
		}(tr)
	}
	wg.Wait()
	for _, tr := range world {
		stats = append(stats, tr.Stats())
	}
	for i, st := range stats {
		var buf bytes.Buffer
		if err := st.WritePrometheus(&buf, i%2); err != nil {
			t.Fatal(err)
		}
		samples, err := metrics.ParsePrometheus(&buf)
		if err != nil {
			t.Fatal(err)
		}
		var sum, peers int64
		for _, s := range samples {
			switch ns := int64(math.Round(s.Value * 1e9)); s.Name {
			case "mg_mpi_blocked_seconds_sum":
				sum += ns
			case "mg_mpi_peer_blocked_seconds_total":
				peers += ns
			}
		}
		if sum != peers || sum != st.ExchangeNanos {
			t.Errorf("stats %d: _sum %d ns, per-peer counters %d ns, ExchangeNanos %d", i, sum, peers, st.ExchangeNanos)
		}
	}
}
