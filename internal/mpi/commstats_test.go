package mpi

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/metrics"
	"repro/internal/mgtest"
)

// TestHistBuckets checks the recorder's two histograms: every send and
// receive adds one blocked-time sample, every queued send one depth
// sample, and both bucket with inclusive power-of-two bounds and an
// exact sum.
func TestHistBuckets(t *testing.T) {
	var r CommRecorder
	for _, v := range []int64{0, 1, 1, 3, 4, 1023, 1024, -5} {
		r.RecordRecv(0, 1, 8, v)
		r.RecordSend(0, 1, 8, 0, int(max(v, 0)))
	}
	r.RecordSend(0, 1, 8, 0, NoQueue)
	var s Stats
	r.SnapshotInto(&s)
	// 0, 1, 1 and -5 (clamped) land in bucket 0 (≤ 1); 3 and 4 in bucket
	// 2 (≤ 4); 1023 and 1024 in bucket 10 (≤ 1024).
	var want metrics.Hist
	want.Counts[0], want.Counts[2], want.Counts[10] = 4, 2, 2
	want.Sum = 0 + 1 + 1 + 3 + 4 + 1023 + 1024
	if s.QueueDepthHist != want {
		t.Errorf("depth hist = %v, want %v", s.QueueDepthHist, want)
	}
	// The blocked histogram also holds the nine sends' zero samples.
	want.Counts[0] += 9
	if s.BlockedHist != want {
		t.Errorf("blocked hist = %v, want %v", s.BlockedHist, want)
	}
}

// TestPeerStatsChannelWorld checks that the channel transport's per-peer
// rows agree with its aggregate counters, and that the per-peer blocked
// time sums exactly to ExchangeNanos.
func TestPeerStatsChannelWorld(t *testing.T) {
	w := NewWorld(2)
	const tag, n = 7, 64
	w.Run(func(c *Comm) {
		peer := 1 - c.Rank()
		buf := make([]float64, n)
		for i := 0; i < 5; i++ {
			if c.Rank() == 0 {
				c.Send(peer, tag, buf)
				c.Recv(peer, tag)
			} else {
				c.Recv(peer, tag)
				c.Send(peer, tag, buf)
			}
		}
	})
	for rank, s := range w.Stats() {
		var sentMsgs, recvMsgs, sentBytes uint64
		for _, p := range s.Peers {
			sentMsgs += p.SentMsgs
			recvMsgs += p.RecvMsgs
			sentBytes += p.SentBytes
			if p.Peer != 1-rank {
				t.Errorf("rank %d: unexpected peer %d", rank, p.Peer)
			}
			if p.Tag != tag {
				t.Errorf("rank %d: unexpected tag %d", rank, p.Tag)
			}
		}
		if sentMsgs != s.Messages {
			t.Errorf("rank %d: per-peer sent %d != Messages %d", rank, sentMsgs, s.Messages)
		}
		if recvMsgs != s.Messages {
			t.Errorf("rank %d: per-peer recv %d != %d (symmetric ping-pong)", rank, recvMsgs, s.Messages)
		}
		if sentBytes != s.Bytes {
			t.Errorf("rank %d: per-peer bytes %d != Bytes %d", rank, sentBytes, s.Bytes)
		}
		if got := blockedNanos(s); got != s.ExchangeNanos {
			t.Errorf("rank %d: per-peer blocked %d != ExchangeNanos %d", rank, got, s.ExchangeNanos)
		}
		if s.BlockedHist.Count() != 2*s.Messages {
			t.Errorf("rank %d: blocked hist count %d != sends+recvs %d", rank, s.BlockedHist.Count(), 2*s.Messages)
		}
		if s.QueueDepthHist.Count() != s.Messages {
			t.Errorf("rank %d: depth hist count %d != sends %d", rank, s.QueueDepthHist.Count(), s.Messages)
		}
	}
	tot := w.TotalStats()
	if got := blockedNanos(tot); got != tot.ExchangeNanos {
		t.Errorf("total per-peer blocked %d != total ExchangeNanos %d", got, tot.ExchangeNanos)
	}
	if tot.BlockedHist.Count() != 2*tot.Messages {
		t.Errorf("total blocked hist count %d != 2*Messages %d", tot.BlockedHist.Count(), 2*tot.Messages)
	}
}

func TestMergePeers(t *testing.T) {
	var s Stats
	s.mergePeers([]PeerStat{{Peer: 1, Tag: 2, SentMsgs: 1}, {Peer: 0, Tag: 5, RecvMsgs: 2}})
	s.mergePeers([]PeerStat{{Peer: 1, Tag: 2, SentMsgs: 3, SendBlockedNanos: 10}, {Peer: 1, Tag: 1, SentMsgs: 1}})
	want := []PeerStat{
		{Peer: 0, Tag: 5, RecvMsgs: 2},
		{Peer: 1, Tag: 1, SentMsgs: 1},
		{Peer: 1, Tag: 2, SentMsgs: 4, SendBlockedNanos: 10},
	}
	if len(s.Peers) != len(want) {
		t.Fatalf("rows = %+v, want %+v", s.Peers, want)
	}
	for i := range want {
		if s.Peers[i] != want[i] {
			t.Errorf("row %d = %+v, want %+v", i, s.Peers[i], want[i])
		}
	}
}

// TestWritePrometheusRoundTrip checks the exposition parses back with the
// repo's own strict parser and that the histogram series are cumulative
// and consistent.
func TestWritePrometheusRoundTrip(t *testing.T) {
	var rec CommRecorder
	rec.RecordSend(1, 3, 512, 1500, 2)
	rec.RecordSend(1, 3, 512, 0, 0)
	rec.RecordRecv(2, 3, 256, 9000)
	var s Stats
	s.Messages, s.Bytes, s.WireBytes, s.ExchangeNanos = 2, 1024, 1064, 10500
	rec.SnapshotInto(&s)

	var buf bytes.Buffer
	if err := s.WritePrometheus(&buf, 3); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	samples, err := mgtest.ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParsePrometheus: %v\n%s", err, buf.String())
	}
	find := func(name string, labels map[string]string) (float64, bool) {
	next:
		for _, smp := range samples {
			if smp.Name != name {
				continue
			}
			for k, v := range labels {
				if smp.Label(k) != v {
					continue next
				}
			}
			return smp.Value, true
		}
		return 0, false
	}
	if v, ok := find("mg_mpi_messages_total", map[string]string{"rank": "3"}); !ok || v != 2 {
		t.Errorf("messages_total = %v ok=%v, want 2", v, ok)
	}
	if v, ok := find("mg_mpi_peer_messages_total", map[string]string{"peer": "1", "tag": "3", "dir": "send"}); !ok || v != 2 {
		t.Errorf("peer send msgs = %v ok=%v, want 2", v, ok)
	}
	if v, ok := find("mg_mpi_peer_blocked_seconds_total", map[string]string{"peer": "2", "dir": "recv"}); !ok || v != 9000e-9 {
		t.Errorf("peer recv blocked = %v ok=%v, want 9e-6", v, ok)
	}
	if v, ok := find("mg_mpi_blocked_seconds_count", map[string]string{"rank": "3"}); !ok || v != 3 {
		t.Errorf("blocked hist count = %v ok=%v, want 3", v, ok)
	}
	// Buckets must be cumulative: the +Inf bucket equals the count.
	if v, ok := find("mg_mpi_blocked_seconds_bucket", map[string]string{"le": "+Inf"}); !ok || v != 3 {
		t.Errorf("+Inf bucket = %v ok=%v, want 3", v, ok)
	}
	if v, ok := find("mg_mpi_send_queue_depth_count", map[string]string{"rank": "3"}); !ok || v != 2 {
		t.Errorf("depth hist count = %v ok=%v, want 2", v, ok)
	}
	// Bucket bounds are inclusive and the sum is exact: depths 2 and 0
	// both count in le="2", and the blocked time totals 1500 + 0 + 9000 ns.
	if v, ok := find("mg_mpi_send_queue_depth_bucket", map[string]string{"le": "2"}); !ok || v != 2 {
		t.Errorf("depth le=2 bucket = %v ok=%v, want 2", v, ok)
	}
	if v, ok := find("mg_mpi_blocked_seconds_sum", map[string]string{"rank": "3"}); !ok || v != 10500e-9 {
		t.Errorf("blocked sum = %v ok=%v, want 1.05e-05", v, ok)
	}
}

// TestRecordSteadyStateZeroAlloc pins the acceptance requirement that the
// always-on stats path allocates nothing once a (peer, tag) pair has been
// seen and the histograms have grown to their working range.
func TestRecordSteadyStateZeroAlloc(t *testing.T) {
	var rec CommRecorder
	// Warm up: create the rows and grow both histograms past every bucket
	// the measured loop will touch.
	rec.RecordSend(1, 3, 4096, 1<<40, 1<<10)
	rec.RecordRecv(1, 3, 4096, 1<<40)
	allocs := testing.AllocsPerRun(1000, func() {
		rec.RecordSend(1, 3, 4096, 12345, 3)
		rec.RecordRecv(1, 3, 4096, 54321)
	})
	if allocs != 0 {
		t.Fatalf("steady-state record path allocates %.1f per op, want 0", allocs)
	}
}

func BenchmarkCommRecord(b *testing.B) {
	var rec CommRecorder
	rec.RecordSend(1, 3, 4096, 1<<40, 1<<10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.RecordSend(1, 3, 4096, int64(i), i&7)
	}
}

// The families of a rank's exposition — names, types and label names —
// are pinned in testdata/metrics.golden.
func TestWritePrometheusFamilies(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, make([]float64, 8))
		} else {
			c.Recv(0, 7)
		}
	})
	var buf bytes.Buffer
	if err := w.Stats()[0].WritePrometheus(&buf, 0); err != nil {
		t.Fatal(err)
	}
	samples, err := mgtest.ParsePrometheus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := mgtest.PromSchema(samples); got != string(want) {
		t.Errorf("exposed families differ from testdata/metrics.golden:\n%s", got)
	}
}
