package mpi

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorldSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0)
}

func TestRunAllRanksExecute(t *testing.T) {
	w := NewWorld(5)
	var mask atomic.Int64
	w.Run(func(c *Comm) {
		if c.Size() != 5 {
			t.Errorf("Size = %d", c.Size())
		}
		mask.Add(1 << c.Rank())
	})
	if mask.Load() != 0b11111 {
		t.Fatalf("rank mask = %b", mask.Load())
	}
}

func TestSendRecvPointToPoint(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float64{1, 2, 3})
		} else {
			got := c.Recv(0, 7)
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("Recv = %v", got)
			}
		}
	})
	total := w.TotalStats()
	if total.Messages != 1 || total.Bytes != 24 {
		t.Fatalf("stats = %+v", total)
	}
}

func TestSendCopiesData(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, 0, buf)
			buf[0] = -1 // must not affect the receiver
		} else {
			if got := c.Recv(0, 0); got[0] != 42 {
				t.Errorf("received %v, want 42 (send did not copy)", got[0])
			}
		}
	})
}

// TestReleaseRecyclesPayloads: a released payload serves the next send's
// copy, so a ping-pong allocates one buffer per message length however long
// it runs; a buffer of 1 MiB or more is never kept; and a payload given back
// twice panics under the pool's paranoid mode.
func TestReleaseRecyclesPayloads(t *testing.T) {
	w := NewWorld(2)
	w.free.SetParanoid(true)
	const rounds = 100
	w.Run(func(c *Comm) {
		for i := 0; i < rounds; i++ {
			if c.Rank() == 0 {
				c.Send(1, 0, []float64{float64(i), 2, 3})
				c.Release(c.Recv(1, 0))
				continue
			}
			got := c.Recv(0, 0)
			if got[0] != float64(i) {
				t.Errorf("message %d arrived as %v", i, got)
			}
			c.Release(got)
			c.Send(0, 0, []float64{float64(i)})
		}
		if c.Rank() == 0 {
			c.Send(1, 1, make([]float64, maxRecycledFloats))
		} else {
			c.Release(c.Recv(0, 1))
		}
	})
	if st := w.free.Stats(); st.Allocs != 2 || st.Puts != 2*rounds {
		t.Errorf("%d round trips: pool %v, want 2 fresh buffers and the large one never put", rounds, st)
	}
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1})
			return
		}
		got := c.Recv(0, 0)
		c.Release(got)
		defer func() {
			if recover() == nil {
				t.Error("releasing a payload twice did not panic in paranoid mode")
			}
		}()
		c.Release(got)
	})
}

func TestFIFOOrderingPerPair(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 5; i++ {
				c.Send(1, i, []float64{float64(i)})
			}
		} else {
			for i := 0; i < 5; i++ {
				if got := c.Recv(0, i); got[0] != float64(i) {
					t.Errorf("message %d out of order: %v", i, got)
				}
			}
		}
	})
}

func TestTagMismatchPanics(t *testing.T) {
	w := NewWorld(2)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("tag mismatch not detected")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "tag") {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{0})
		} else {
			c.Recv(0, 2)
		}
	})
}

func TestInvalidRankPanics(t *testing.T) {
	w := NewWorld(1)
	defer func() {
		if recover() == nil {
			t.Error("Send to invalid rank did not panic")
		}
	}()
	w.Run(func(c *Comm) { c.Send(3, 0, nil) })
}

func TestBroadcast(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		var data []float64
		if c.Rank() == 2 {
			data = []float64{3.14, 2.71}
		}
		got := c.Broadcast(5, 2, data)
		if len(got) != 2 || got[0] != 3.14 || got[1] != 2.71 {
			t.Errorf("rank %d Broadcast = %v", c.Rank(), got)
		}
	})
}

func TestSendRecvExchange(t *testing.T) {
	// A ring shift: every rank sends to the right, receives from the left.
	w := NewWorld(5)
	w.Run(func(c *Comm) {
		right := (c.Rank() + 1) % c.Size()
		left := (c.Rank() - 1 + c.Size()) % c.Size()
		c.Send(right, 9, []float64{float64(c.Rank())})
		got := c.Recv(left, 9)
		if got[0] != float64(left) {
			t.Errorf("rank %d received %v, want %d", c.Rank(), got[0], left)
		}
	})
}

func TestPanicPropagation(t *testing.T) {
	w := NewWorld(3)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("rank panic was swallowed")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("unexpected panic payload: %v", r)
		}
	}()
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
		// Other ranks block in a Recv from the dead rank; the abort must
		// release them rather than deadlocking the test.
		defer func() { recover() }() // they get a "world aborted" panic
		c.Recv(1, 0)
	})
}

func TestStatsAccumulateAcrossRuns(t *testing.T) {
	w := NewWorld(2)
	body := func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 4))
		} else {
			c.Recv(0, 0)
		}
	}
	w.Run(body)
	w.Run(body)
	if got := w.TotalStats(); got.Messages != 2 || got.Bytes != 64 {
		t.Fatalf("accumulated stats = %+v", got)
	}
	per := w.Stats()
	if per[0].Messages != 2 || per[1].Messages != 0 {
		t.Fatalf("per-rank stats = %+v", per)
	}
}

func BenchmarkHaloExchange(b *testing.B) {
	w := NewWorld(4)
	plane := make([]float64, 66*66)
	b.SetBytes(int64(len(plane) * 8 * 2))
	b.ResetTimer()
	w.Run(func(c *Comm) {
		right := (c.Rank() + 1) % c.Size()
		left := (c.Rank() - 1 + c.Size()) % c.Size()
		for i := 0; i < b.N; i++ {
			c.Send(right, 1, plane)
			c.Recv(left, 1)
			c.Send(left, 2, plane)
			c.Recv(right, 2)
		}
	})
}

func TestWorldSize(t *testing.T) {
	if NewWorld(7).size != 7 {
		t.Fatal("World size wrong")
	}
}

// A Send stuck on a full mailbox must fail within the stall bound with a
// message naming the destination rank and the tag — the information a
// deadlocked halo exchange needs to be diagnosable.
func TestSendFullMailboxDiagnostics(t *testing.T) {
	w := NewWorld(2)
	w.Stall = 30 * time.Millisecond
	var msg string
	func() {
		defer func() { recover() }() // Run re-raises rank 0's panic
		w.Run(func(c *Comm) {
			if c.Rank() != 0 {
				return
			}
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
					panic(r)
				}
			}()
			for i := 0; ; i++ {
				c.Send(1, 42, []float64{float64(i)})
			}
		})
	}()
	for _, want := range []string{"rank 1", "tag 42", "mailbox full"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("stalled Send panic %q does not mention %q", msg, want)
		}
	}
}

// A Recv blocked on a rank that has died (panicked) must fail promptly
// with a message naming the source rank and the tag.
func TestRecvFromDeadRankNamesRankAndTag(t *testing.T) {
	w := NewWorld(2)
	var msg string
	func() {
		defer func() { recover() }() // Run re-raises rank 1's panic
		w.Run(func(c *Comm) {
			if c.Rank() == 1 {
				panic("rank 1 dies")
			}
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
				}
			}()
			c.Recv(1, 7)
		})
	}()
	for _, want := range []string{"rank 1", "tag 7", "dead"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("dead-peer Recv panic %q does not mention %q", msg, want)
		}
	}
}

// A Recv with no matching Send must fail at the stall bound, not hang.
func TestRecvStallTimesOut(t *testing.T) {
	w := NewWorld(2)
	w.Stall = 30 * time.Millisecond
	start := time.Now()
	var msg string
	func() {
		defer func() { recover() }()
		w.Run(func(c *Comm) {
			if c.Rank() != 0 {
				return
			}
			defer func() {
				if r := recover(); r != nil {
					msg = fmt.Sprint(r)
					panic(r)
				}
			}()
			c.Recv(1, 3)
		})
	}()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled Recv took %v, want ~30ms", elapsed)
	}
	for _, want := range []string{"rank 1", "tag 3"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("stalled Recv panic %q does not mention %q", msg, want)
		}
	}
}

// The channel transport implements the Transport seam directly: a pair of
// transports moves data without World.Run, and blocked exchange time is
// accounted in the stats.
func TestWorldTransportDirect(t *testing.T) {
	w := NewWorld(2)
	t0, t1 := w.Transport(0), w.Transport(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		data, err := t1.Recv(0, 5)
		if err != nil || len(data) != 2 || data[1] != 8 {
			t.Errorf("Recv = %v, %v", data, err)
		}
	}()
	time.Sleep(10 * time.Millisecond) // let the receiver block (slow path)
	if err := t0.Send(1, 5, []float64{7, 8}); err != nil {
		t.Fatal(err)
	}
	<-done
	if st := w.Stats()[1]; st.ExchangeNanos <= 0 {
		t.Fatalf("blocked Recv recorded no exchange time: %+v", st)
	}
	if st := w.Stats()[0]; st.Messages != 1 || st.Bytes != 16 || st.WireBytes != 0 {
		t.Fatalf("sender stats = %+v (channel transport must report zero wire bytes)", st)
	}
}
