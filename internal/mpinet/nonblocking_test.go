package mpinet

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"
)

// A bidirectional exchange over real sockets in the overlapped halo
// exchange's shape: both ranks send, then both receive. Data round-trips,
// and the accounting keeps its invariants — per-peer blocked time sums to
// ExchangeNanos and the blocked histogram holds one sample per call.
func TestRequestTCPRoundTrip(t *testing.T) {
	world := localWorld(t, 2, nil)
	t0, t1 := world[0], world[1]

	if err := t0.Send(1, 5, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	if err := t1.Send(0, 5, []float64{1.5}); err != nil {
		t.Fatal(err)
	}
	d0, err0 := t0.Recv(1, 5)
	d1, err1 := t1.Recv(0, 5)
	if err0 != nil || err1 != nil || d0[0] != 1.5 || d1[0] != 0.5 {
		t.Fatalf("exchange = %v,%v / %v,%v", d0, err0, d1, err1)
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
		if got := st.BlockedHist.Count(); got != 2 { // one Send + one Recv
			t.Errorf("rank %d blocked-hist samples = %d, want 2", rank, got)
		}
	}
}

// TestWriteFIFOUnderAbortRelay pins the one write path. The rank goroutine
// sends payloads of varying size to one peer and ends with Close's goodbye,
// while another goroutine fails the transport and relays an abort to the
// same peer. The peer must read only intact frames; the application frames
// must be exactly the sends that reported success, in send order; the
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
		for i := 0; i < posts; i++ {
			if i == posts/4+round*20 {
				close(start)
			}
			if err := tr.Send(1, i, face(i, 1+i%5)); err == nil {
				ok = append(ok, i)
			}
		}
		failedFirst := tr.Err() != nil
		tr.Close()
		<-relayed
		if err := <-read; err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if fmt.Sprint(tags) != fmt.Sprint(ok) {
			t.Fatalf("round %d: the peer read tags %v, the sends that succeeded were %v", round, tags, ok)
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

// recvBlocked starts Recv(1, 9) before the test injects a fault, so the
// call is blocked against the wire when it arrives, and returns its result.
func recvBlocked(tr *Transport) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := tr.Recv(1, 9)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // let Recv block
	return done
}

// awaitErr waits for a blocked Recv's error, failing the test on a hang.
func awaitErr(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(4 * time.Second):
		t.Fatal("Recv still blocked 4s after the fault, want prompt failure (no hang)")
		return nil
	}
}

// A Recv blocked against a rank that dies surfaces the typed
// *PeerDeadError within the deadline — never a hang — and a later Recv
// returns the same error.
func TestRequestIrecvDeadRankSurfacesAtWait(t *testing.T) {
	tr, raw := rawPeer(t, 5*time.Second)
	done := recvBlocked(tr)
	// The peer's death arrives as a relayed abort frame naming the dead
	// rank — the same frame a surviving rank forwards in a larger world.
	if _, err := raw.Write(encodeFrame(1, tagAbort, []float64{1})); err != nil {
		t.Fatal(err)
	}
	err := awaitErr(t, done)
	var dead *PeerDeadError
	if !errors.As(err, &dead) {
		t.Fatalf("Recv error %v (%T), want *PeerDeadError", err, err)
	}
	if dead.Peer != 1 {
		t.Errorf("PeerDeadError.Peer = %d, want 1", dead.Peer)
	}
	if _, err2 := tr.Recv(1, 9); err2 != err {
		t.Errorf("second Recv returned %v, want %v", err2, err)
	}
	// The failure was never observed as a receive: no recv row.
	if row := tr.Stats().Peers; len(row) != 0 {
		t.Errorf("failed Recv recorded traffic rows: %+v", row)
	}
}

// A connection torn down under a blocked Recv (socket closed, no abort
// relay) also fails it with a typed connection error, not a hang.
func TestRequestIrecvConnectionLostFailsAtWait(t *testing.T) {
	tr, raw := rawPeer(t, 5*time.Second)
	done := recvBlocked(tr)
	raw.Close()
	err := awaitErr(t, done)
	var pe *PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("Recv error %v (%T), want *PeerError", err, err)
	}
	if pe.Peer != 1 {
		t.Errorf("PeerError.Peer = %d, want 1", pe.Peer)
	}
}
