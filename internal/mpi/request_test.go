package mpi

import (
	"strings"
	"testing"
	"time"
)

// A ring exchange in the overlapped halo exchange's shape: every rank
// sends, computes "while the wire drains", then receives. The accounting
// holds its invariants: blocked time sums match ExchangeNanos, and the
// blocked histogram holds exactly one sample per call.
func TestRequestOverlapExchangeStats(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		tr := c.Transport()
		right := (c.Rank() + 1) % c.Size()
		left := (c.Rank() - 1 + c.Size()) % c.Size()
		if err := tr.Send(right, 1, []float64{float64(c.Rank())}); err != nil {
			t.Errorf("rank %d send failed: %v", c.Rank(), err)
		}
		data, err := tr.Recv(left, 1)
		if err != nil || len(data) != 1 || data[0] != float64(left) {
			t.Errorf("rank %d received %v, %v; want [%d]", c.Rank(), data, err, left)
		}
	})
	for rank, st := range w.Stats() {
		if st.Messages != 1 || st.Bytes != 8 {
			t.Errorf("rank %d counters = %+v", rank, st)
		}
		if st.BlockedNanos() != st.ExchangeNanos {
			t.Errorf("rank %d per-peer blocked %d != ExchangeNanos %d",
				rank, st.BlockedNanos(), st.ExchangeNanos)
		}
		if got := st.BlockedHist.Count(); got != 2 { // one Send + one Recv
			t.Errorf("rank %d blocked-hist samples = %d, want 2", rank, got)
		}
		if got := st.QueueDepthHist.Count(); got != 1 {
			t.Errorf("rank %d depth-hist samples = %d, want 1", rank, got)
		}
	}
}

// Sends queued past the mailbox depth stay FIFO: the sender blocks on the
// full mailbox, the receiver drains every tag in send order, and the
// sender's wait is charged as exchange time on its (peer, tag) rows.
func TestRequestFIFOUnderBackpressure(t *testing.T) {
	const n = 3 * mailboxDepth
	w := NewWorld(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		tr := w.Transport(1)
		time.Sleep(10 * time.Millisecond) // let the sender overrun the mailbox
		for tag := 0; tag <= n; tag++ {
			data, err := tr.Recv(0, tag)
			if err != nil || data[0] != float64(tag) {
				t.Errorf("tag %d out of order: %v, %v", tag, data, err)
				return
			}
		}
	}()
	tr := w.Transport(0)
	for tag := 0; tag <= n; tag++ {
		if err := tr.Send(1, tag, []float64{float64(tag)}); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	st := w.Stats()[0]
	if st.Messages != n+1 {
		t.Fatalf("sender counted %d messages, want %d", st.Messages, n+1)
	}
	if st.ExchangeNanos <= 0 || st.BlockedNanos() != st.ExchangeNanos {
		t.Fatalf("sender blocked on a full mailbox: ExchangeNanos %d, per-peer blocked %d",
			st.ExchangeNanos, st.BlockedNanos())
	}
}

// A Recv from a rank that dies fails with an error naming the dead rank —
// never a hang — and a second Recv from it fails the same way.
func TestRequestIrecvDeadRankFailsAtWait(t *testing.T) {
	w := NewWorld(2)
	var msg string
	func() {
		defer func() { recover() }() // Run re-raises rank 1's panic
		w.Run(func(c *Comm) {
			if c.Rank() == 1 {
				panic("rank 1 dies")
			}
			_, err := c.Transport().Recv(1, 7)
			if err == nil {
				t.Error("Recv from a dead rank completed successfully")
				return
			}
			msg = err.Error()
			if _, err2 := c.Transport().Recv(1, 7); err2 == nil || err2.Error() != msg {
				t.Errorf("second Recv returned %v, want %q", err2, msg)
			}
		})
	}()
	for _, want := range []string{"rank 1", "dead"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("dead-peer Recv error %q does not mention %q", msg, want)
		}
	}
}

// Sending to or receiving from an invalid rank fails with a diagnosable
// error and records no traffic.
func TestRequestInvalidRank(t *testing.T) {
	w := NewWorld(1)
	tr := w.Transport(0)
	if err := tr.Send(3, 0, []float64{1}); err == nil || !strings.Contains(err.Error(), "invalid rank 3") {
		t.Fatalf("Send to invalid rank: %v", err)
	}
	if _, err := tr.Recv(-1, 0); err == nil || !strings.Contains(err.Error(), "invalid rank -1") {
		t.Fatalf("Recv from invalid rank: %v", err)
	}
	if st := w.Stats()[0]; st.Messages != 0 || len(st.Peers) != 0 {
		t.Fatalf("invalid-rank calls recorded traffic: %+v", st)
	}
}
