package mpinet

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"testing"
	"time"

	"repro/internal/mpi"
)

// A bidirectional nonblocking exchange over real sockets: post both
// receives and both sends, then wait. Data round-trips, double Wait is
// idempotent, and the split accounting keeps the blocking API's
// invariants — per-peer blocked time sums to ExchangeNanos and the
// blocked histogram holds one sample per message observed.
func TestRequestTCPRoundTrip(t *testing.T) {
	world := localWorld(t, 2, nil)
	t0, t1 := world[0], world[1]

	r0 := t0.Irecv(1, 5)
	r1 := t1.Irecv(0, 5)
	s0 := t0.Isend(1, 5, []float64{0.5})
	s1 := t1.Isend(0, 5, []float64{1.5})
	d0, err0 := r0.Wait()
	d1, err1 := r1.Wait()
	if err0 != nil || err1 != nil || d0[0] != 1.5 || d1[0] != 0.5 {
		t.Fatalf("exchange = %v,%v / %v,%v", d0, err0, d1, err1)
	}
	if err := mpi.WaitAll(s0, s1); err != nil {
		t.Fatal(err)
	}
	if d, err := r0.Wait(); err != nil || d[0] != 1.5 { // double Wait: same latched result
		t.Fatalf("second Wait = %v, %v", d, err)
	}

	for rank, tr := range world {
		st := tr.Stats()
		if st.Messages != 1 || st.Bytes != 8 || st.WireBytes <= st.Bytes {
			t.Errorf("rank %d counters = %+v (framing must exceed payload)", rank, st)
		}
		if st.BlockedNanos() != st.ExchangeNanos {
			t.Errorf("rank %d per-peer blocked %d != ExchangeNanos %d",
				rank, st.BlockedNanos(), st.ExchangeNanos)
		}
		// One sample for the send's first Wait, one for the receive's —
		// the double Wait above must not have added a third.
		if got := st.BlockedHist.Count(); got != 2 {
			t.Errorf("rank %d blocked-hist samples = %d, want 2", rank, got)
		}
	}
}

// A dropped Isend is still delivered: the frame was written at post time,
// and the message counters with it.
func TestRequestTCPDroppedIsendDelivered(t *testing.T) {
	world := localWorld(t, 2, nil)
	world[0].Isend(1, 8, []float64{3, 4}) // never waited
	data, err := world[1].Recv(0, 8)
	if err != nil || len(data) != 2 || data[1] != 4 {
		t.Fatalf("Recv after dropped Isend = %v, %v", data, err)
	}
	st := world[0].Stats()
	if st.Messages != 1 || st.WireBytes == 0 {
		t.Fatalf("dropped Isend undercounted: %+v", st)
	}
	if got := st.BlockedHist.Count(); got != 0 {
		t.Fatalf("dropped Isend charged blocked time: %d samples", got)
	}
}

// A blocking Recv posted behind a still-pending Irecv on the same
// stream must not overtake it: the chain hands the first frame to the
// Irecv and the second to the Recv, which tag-matching would expose
// instantly if the order flipped.
func TestRequestTCPBlockingChainsBehindIrecv(t *testing.T) {
	world := localWorld(t, 2, nil)
	req := world[0].Irecv(1, 1) // inbox empty: pending
	got := make(chan error, 1)
	go func() {
		data, err := world[0].Recv(1, 2) // must chain behind req
		if err == nil && data[0] != 2 {
			err = errors.New("blocking Recv got the Irecv's payload")
		}
		got <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the Recv reach awaitChain
	if err := world[1].Send(0, 1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := world[1].Send(0, 2, []float64{2}); err != nil {
		t.Fatal(err)
	}
	if data, err := req.Wait(); err != nil || data[0] != 1 {
		t.Fatalf("Irecv Wait = %v, %v", data, err)
	}
	if err := <-got; err != nil {
		t.Fatal(err)
	}
}

// TestWriteFIFOUnderAbortRelay pins the one write path. The rank goroutine
// interleaves Isend and Send to one peer and ends with Close's goodbye,
// while another goroutine fails the transport and relays an abort to the
// same peer. The peer must read only intact frames; the application frames
// must be exactly the posts that reported success, in post order (an Isend
// overtaken by a later Send shows up here as a tag out of order); the
// abort arrives at most once, and before the goodbye whenever the failure
// was visible when Close began; nothing of the rank's follows the goodbye.
func TestWriteFIFOUnderAbortRelay(t *testing.T) {
	const posts = 300
	for round := 0; round < 8; round++ {
		tr, raws := rawWorld(t, 3)
		read := make(chan error, 1)
		var tags []int
		aborts, lateAborts := 0, 0
		go func() { // raw rank 1: read every frame until the socket closes
			read <- func() error {
				hdr := make([]byte, headerLen)
				goodbye := false
				for {
					raws[1].SetReadDeadline(time.Now().Add(5 * time.Second))
					h, data, err := readFrame(raws[1], hdr, 0) // validates magic, length and CRC
					switch {
					case errors.Is(err, io.EOF):
						return nil
					case err != nil:
						return err
					case goodbye && h.tag != tagAbort: // a concurrent relay may land after the goodbye, nothing of ours may
						return fmt.Errorf("tag %d arrived after the goodbye", h.tag)
					case h.tag == tagGoodbye:
						goodbye = true
					case h.tag == tagAbort:
						if len(data) != 1 || data[0] != 2 {
							return fmt.Errorf("abort payload %v, want rank 2", data)
						}
						aborts++
						if goodbye {
							lateAborts++
						}
					case !sameFloats(data, face(h.tag, 1+h.tag%5)):
						return fmt.Errorf("tag %d arrived with payload %v", h.tag, data)
					default:
						tags = append(tags, h.tag)
					}
				}
			}()
		}()

		start, relayed := make(chan struct{}), make(chan struct{})
		go func() {
			<-start
			tr.fail(&PeerError{Peer: 2, Op: "read", Err: io.ErrUnexpectedEOF})
			close(relayed)
		}()
		var ok []int
		reqs := map[int]mpi.Request{}
		for i := 0; i < posts; i++ {
			if i == posts/4+round*20 {
				close(start)
			}
			if i%3 == 0 {
				if err := tr.Send(1, i, face(i, 1+i%5)); err == nil {
					ok = append(ok, i)
				}
				continue
			}
			reqs[i] = tr.Isend(1, i, face(i, 1+i%5))
		}
		failedFirst := tr.Err() != nil
		tr.Close()
		<-relayed
		for i, req := range reqs {
			if _, err := req.Wait(); err == nil {
				ok = append(ok, i)
			}
		}
		sort.Ints(ok)
		if err := <-read; err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if fmt.Sprint(tags) != fmt.Sprint(ok) {
			t.Fatalf("round %d: the peer read tags %v, the posts that succeeded were %v", round, tags, ok)
		}
		if aborts > 1 || (failedFirst && (aborts == 0 || lateAborts > 0)) {
			t.Fatalf("round %d: %d aborts read, %d after the goodbye (failed before Close: %v)", round, aborts, lateAborts, failedFirst)
		}
		var pe *PeerError
		if err := tr.Err(); !errors.As(err, &pe) || pe.Peer != 2 {
			t.Fatalf("round %d: transport error %v, want the relayed PeerError naming rank 2", round, err)
		}
	}
}

// The ISSUE's fault path: an Irecv posted against a rank that dies
// surfaces the typed *PeerDeadError at Wait — within the deadline,
// never a hang — and repeated Waits return the same latched error.
func TestRequestIrecvDeadRankSurfacesAtWait(t *testing.T) {
	tr, raw := rawPeer(t, 5*time.Second)
	req := tr.Irecv(1, 9) // nothing buffered: pending against the wire
	// The peer's death arrives as a relayed abort frame naming the dead
	// rank — the same frame a surviving rank forwards in a larger world.
	if _, err := raw.Write(encodeFrame(1, tagAbort, []float64{1})); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := req.Wait()
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("Wait took %v, want prompt failure (no hang)", elapsed)
	}
	var dead *PeerDeadError
	if !errors.As(err, &dead) {
		t.Fatalf("Wait error %v (%T), want *PeerDeadError", err, err)
	}
	if dead.Peer != 1 {
		t.Errorf("PeerDeadError.Peer = %d, want 1", dead.Peer)
	}
	if _, err2 := req.Wait(); err2 != err {
		t.Errorf("second Wait returned %v, want the latched %v", err2, err)
	}
	// The failure was never observed as a receive: no recv row, no
	// blocked-time sample beyond the Wait's.
	if row := tr.Stats().Peers; len(row) != 0 {
		t.Errorf("failed Irecv recorded traffic rows: %+v", row)
	}
}

// A connection torn down mid-Irecv (socket closed, no abort relay)
// also fails the Wait with a typed connection error, not a hang.
func TestRequestIrecvConnectionLostFailsAtWait(t *testing.T) {
	tr, raw := rawPeer(t, 5*time.Second)
	req := tr.Irecv(1, 9)
	raw.Close()
	start := time.Now()
	_, err := req.Wait()
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("Wait took %v, want prompt failure (no hang)", elapsed)
	}
	var pe *PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("Wait error %v (%T), want *PeerError", err, err)
	}
	if pe.Peer != 1 {
		t.Errorf("PeerError.Peer = %d, want 1", pe.Peer)
	}
}
