// Per-(peer, tag) communication accounting, shared by both transports.
// The aggregate Stats counters (Messages, Bytes, ExchangeNanos) say how
// much a rank communicated; the PeerStat rows and the histograms here say
// with whom, under which tag, and how the blocked time was distributed —
// the raw material of the skew/overlap report (DESIGN.md §3.5) and the
// mgrank Prometheus endpoint.
//
// A CommRecorder is one rank's collector. Its hot path (RecordSend /
// RecordRecv) takes one mutex, bumps a *PeerStat found in a small map and
// observes two histograms — zero allocations once a (peer, tag) pair has
// been seen, which a benchmark pins (commstats_test.go). Snapshots sort
// rows by (peer, tag) so reports and JSON output are deterministic.
package mpi

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
)

// PeerStat is one rank's traffic with one peer under one tag: how many
// messages and payload bytes went each way, and how long the rank was
// blocked inside the transport for them. The channel transport counts
// only slow-path waits (an immediate channel operation costs nothing
// measurable); internal/mpinet counts full call durations — in both
// cases the per-peer nanos sum to the rank's aggregate ExchangeNanos.
type PeerStat struct {
	Peer             int    `json:"peer"`
	Tag              int    `json:"tag"`
	SentMsgs         uint64 `json:"sentMsgs,omitempty"`
	SentBytes        uint64 `json:"sentBytes,omitempty"`
	RecvMsgs         uint64 `json:"recvMsgs,omitempty"`
	RecvBytes        uint64 `json:"recvBytes,omitempty"`
	SendBlockedNanos int64  `json:"sendBlockedNs,omitempty"`
	RecvBlockedNanos int64  `json:"recvBlockedNs,omitempty"`
}

// Hist is a power-of-two-bucketed histogram of non-negative samples:
// bucket 0 counts exact zeros, bucket i (i ≥ 1) counts values v with
// 2^(i-1) <= v < 2^i. It grows on demand and never shrinks, so the
// steady-state Observe path is allocation-free.
type Hist []uint64

// histIndex maps a sample to its bucket.
func histIndex(v uint64) int { return bits.Len64(v) }

// Observe adds one sample. Negative samples (clock weirdness) clamp to
// zero rather than corrupting the bucket index.
func (h *Hist) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := histIndex(uint64(v))
	if n := len(*h); i >= n {
		*h = append(*h, make(Hist, i+1-n)...)
	}
	(*h)[i]++
}

// Merge adds another histogram's counts into h.
func (h *Hist) Merge(o Hist) {
	if n := len(o); n > len(*h) {
		*h = append(*h, make(Hist, n-len(*h))...)
	}
	for i, c := range o {
		(*h)[i] += c
	}
}

// Count returns the total number of observations.
func (h Hist) Count() uint64 {
	var n uint64
	for _, c := range h {
		n += c
	}
	return n
}

// Bound returns the exclusive upper bound of bucket i: 1 for bucket 0
// (zeros), 2^i for bucket i.
func (h Hist) Bound(i int) uint64 {
	if i == 0 {
		return 1
	}
	return 1 << uint(i)
}

// clone returns an independent copy (nil stays nil).
func (h Hist) clone() Hist {
	if h == nil {
		return nil
	}
	return append(Hist(nil), h...)
}

// peerTag keys a recorder's per-peer rows.
type peerTag struct{ peer, tag int }

// CommRecorder collects one rank's per-(peer, tag) rows and the two
// histograms. The zero value is ready to use.
type CommRecorder struct {
	mu      sync.Mutex
	peers   map[peerTag]*PeerStat
	blocked Hist // nanoseconds blocked per Send/Recv call
	depth   Hist // send-queue depth seen at enqueue time
}

func (r *CommRecorder) row(peer, tag int) *PeerStat {
	if r.peers == nil {
		r.peers = make(map[peerTag]*PeerStat)
	}
	k := peerTag{peer, tag}
	p := r.peers[k]
	if p == nil {
		p = &PeerStat{Peer: peer, Tag: tag}
		r.peers[k] = p
	}
	return p
}

// NoQueue is the queue depth a transport without a departure queue
// passes (mpinet, whose sender writes its own frame): no depth sample.
const NoQueue = -1

// observeDepth samples the departure-queue depth unless there is no queue.
func (r *CommRecorder) observeDepth(queueDepth int) {
	if queueDepth != NoQueue {
		r.depth.Observe(int64(queueDepth))
	}
}

// RecordSend accounts one completed send: payload bytes, the time the
// caller was blocked inside the transport, and the departure-queue depth
// observed before enqueue (mailbox fill for the channel transport;
// NoQueue for mpinet).
func (r *CommRecorder) RecordSend(peer, tag int, payloadBytes uint64, blockedNanos int64, queueDepth int) {
	r.mu.Lock()
	p := r.row(peer, tag)
	p.SentMsgs++
	p.SentBytes += payloadBytes
	p.SendBlockedNanos += blockedNanos
	r.blocked.Observe(blockedNanos)
	r.observeDepth(queueDepth)
	r.mu.Unlock()
}

// RecordSendPosted accounts a nonblocking send at post time: the message
// and byte counters and the departure-queue depth, but no blocked time —
// for nonblocking operations blocked time is measured inside Wait
// (RecordSendWait), not inside the post call. The blocked-time histogram
// therefore gets exactly one sample per message in both APIs: the call
// for blocking sends, the Wait for nonblocking ones.
func (r *CommRecorder) RecordSendPosted(peer, tag int, payloadBytes uint64, queueDepth int) {
	r.mu.Lock()
	p := r.row(peer, tag)
	p.SentMsgs++
	p.SentBytes += payloadBytes
	r.observeDepth(queueDepth)
	r.mu.Unlock()
}

// RecordSendWait accounts the blocked time of a nonblocking send's first
// Wait, completing the row its RecordSendPosted opened.
func (r *CommRecorder) RecordSendWait(peer, tag int, blockedNanos int64) {
	r.mu.Lock()
	p := r.row(peer, tag)
	p.SendBlockedNanos += blockedNanos
	r.blocked.Observe(blockedNanos)
	r.mu.Unlock()
}

// RecordRecv accounts one completed receive.
func (r *CommRecorder) RecordRecv(peer, tag int, payloadBytes uint64, blockedNanos int64) {
	r.mu.Lock()
	p := r.row(peer, tag)
	p.RecvMsgs++
	p.RecvBytes += payloadBytes
	p.RecvBlockedNanos += blockedNanos
	r.blocked.Observe(blockedNanos)
	r.mu.Unlock()
}

// SnapshotInto copies the recorder's rows and histograms into s, sorted
// by (peer, tag) for deterministic output.
func (r *CommRecorder) SnapshotInto(s *Stats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.peers) > 0 {
		s.Peers = make([]PeerStat, 0, len(r.peers))
		for _, p := range r.peers {
			s.Peers = append(s.Peers, *p)
		}
		sort.Slice(s.Peers, func(i, j int) bool {
			if s.Peers[i].Peer != s.Peers[j].Peer {
				return s.Peers[i].Peer < s.Peers[j].Peer
			}
			return s.Peers[i].Tag < s.Peers[j].Tag
		})
	}
	s.BlockedHist = r.blocked.clone()
	s.QueueDepthHist = r.depth.clone()
}

// MergePeers folds another rank's rows into s by (peer, tag) — used by
// TotalStats and report code that aggregates a world. The result
// describes volume per (peer, tag) across all ranks; the Peer field then
// names the remote end as seen by each contributing rank.
func (s *Stats) MergePeers(rows []PeerStat) {
	for _, p := range rows {
		i := sort.Search(len(s.Peers), func(i int) bool {
			if s.Peers[i].Peer != p.Peer {
				return s.Peers[i].Peer > p.Peer
			}
			return s.Peers[i].Tag >= p.Tag
		})
		if i < len(s.Peers) && s.Peers[i].Peer == p.Peer && s.Peers[i].Tag == p.Tag {
			q := &s.Peers[i]
			q.SentMsgs += p.SentMsgs
			q.SentBytes += p.SentBytes
			q.RecvMsgs += p.RecvMsgs
			q.RecvBytes += p.RecvBytes
			q.SendBlockedNanos += p.SendBlockedNanos
			q.RecvBlockedNanos += p.RecvBlockedNanos
			continue
		}
		s.Peers = append(s.Peers, PeerStat{})
		copy(s.Peers[i+1:], s.Peers[i:])
		s.Peers[i] = p
	}
}

// BlockedNanos sums the per-peer blocked time (send + recv) of the rows
// — by construction equal to the transport's aggregate ExchangeNanos.
func (s Stats) BlockedNanos() int64 {
	var n int64
	for _, p := range s.Peers {
		n += p.SendBlockedNanos + p.RecvBlockedNanos
	}
	return n
}

// WritePrometheus renders the stats in the Prometheus text exposition
// format (0.0.4), the same dialect internal/metrics speaks: aggregate
// counters, per-(peer, tag) labeled counters, and the blocked-time and
// queue-depth histograms with power-of-two le bounds. rank labels every
// series so scrapes from several mgrank processes aggregate cleanly.
func (s Stats) WritePrometheus(w io.Writer, rank int) error {
	bw := &errWriter{w: w}
	p := func(format string, args ...any) { fmt.Fprintf(bw, format, args...) }

	p("# HELP mg_mpi_messages_total Point-to-point messages sent by this rank.\n")
	p("# TYPE mg_mpi_messages_total counter\n")
	p("mg_mpi_messages_total{rank=\"%d\"} %d\n", rank, s.Messages)
	p("# HELP mg_mpi_payload_bytes_total Payload bytes sent by this rank.\n")
	p("# TYPE mg_mpi_payload_bytes_total counter\n")
	p("mg_mpi_payload_bytes_total{rank=\"%d\"} %d\n", rank, s.Bytes)
	p("# HELP mg_mpi_wire_bytes_total Framed bytes put on the wire by this rank.\n")
	p("# TYPE mg_mpi_wire_bytes_total counter\n")
	p("mg_mpi_wire_bytes_total{rank=\"%d\"} %d\n", rank, s.WireBytes)
	p("# HELP mg_mpi_exchange_seconds_total Wall time blocked in communication.\n")
	p("# TYPE mg_mpi_exchange_seconds_total counter\n")
	p("mg_mpi_exchange_seconds_total{rank=\"%d\"} %g\n", rank, float64(s.ExchangeNanos)/1e9)

	if len(s.Peers) > 0 {
		p("# HELP mg_mpi_peer_messages_total Messages exchanged with one peer under one tag, by direction.\n")
		p("# TYPE mg_mpi_peer_messages_total counter\n")
		for _, ps := range s.Peers {
			p("mg_mpi_peer_messages_total{rank=\"%d\",peer=\"%d\",tag=\"%d\",dir=\"send\"} %d\n", rank, ps.Peer, ps.Tag, ps.SentMsgs)
			p("mg_mpi_peer_messages_total{rank=\"%d\",peer=\"%d\",tag=\"%d\",dir=\"recv\"} %d\n", rank, ps.Peer, ps.Tag, ps.RecvMsgs)
		}
		p("# HELP mg_mpi_peer_payload_bytes_total Payload bytes exchanged with one peer under one tag, by direction.\n")
		p("# TYPE mg_mpi_peer_payload_bytes_total counter\n")
		for _, ps := range s.Peers {
			p("mg_mpi_peer_payload_bytes_total{rank=\"%d\",peer=\"%d\",tag=\"%d\",dir=\"send\"} %d\n", rank, ps.Peer, ps.Tag, ps.SentBytes)
			p("mg_mpi_peer_payload_bytes_total{rank=\"%d\",peer=\"%d\",tag=\"%d\",dir=\"recv\"} %d\n", rank, ps.Peer, ps.Tag, ps.RecvBytes)
		}
		p("# HELP mg_mpi_peer_blocked_seconds_total Time blocked in the transport per peer and tag, by direction.\n")
		p("# TYPE mg_mpi_peer_blocked_seconds_total counter\n")
		for _, ps := range s.Peers {
			p("mg_mpi_peer_blocked_seconds_total{rank=\"%d\",peer=\"%d\",tag=\"%d\",dir=\"send\"} %g\n", rank, ps.Peer, ps.Tag, float64(ps.SendBlockedNanos)/1e9)
			p("mg_mpi_peer_blocked_seconds_total{rank=\"%d\",peer=\"%d\",tag=\"%d\",dir=\"recv\"} %g\n", rank, ps.Peer, ps.Tag, float64(ps.RecvBlockedNanos)/1e9)
		}
	}

	writeHist := func(name, help string, h Hist, scale float64) {
		p("# HELP %s %s\n", name, help)
		p("# TYPE %s histogram\n", name)
		var cum uint64
		var sum float64
		for i, c := range h {
			cum += c
			// Bucket midpoint-free sum: use the exclusive bound as the
			// conventional overestimate; exact sums live in the counter
			// series above.
			sum += float64(c) * float64(h.Bound(i)) * scale
			p("%s_bucket{rank=\"%d\",le=\"%g\"} %d\n", name, rank, float64(h.Bound(i))*scale, cum)
		}
		p("%s_bucket{rank=\"%d\",le=\"+Inf\"} %d\n", name, rank, cum)
		p("%s_sum{rank=\"%d\"} %g\n", name, rank, sum)
		p("%s_count{rank=\"%d\"} %d\n", name, rank, cum)
	}
	writeHist("mg_mpi_blocked_seconds", "Blocked time per Send/Recv call.", s.BlockedHist, 1e-9)
	writeHist("mg_mpi_send_queue_depth", "Departure-queue depth observed at enqueue.", s.QueueDepthHist, 1)

	return bw.err
}

// errWriter latches the first write error so the exposition code above
// can stay free of per-line error plumbing.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, err
}

// HistQuantile returns an upper bound for the q-quantile (0 < q <= 1) of
// the histogram, in the sample's native unit — the exclusive bound of
// the bucket where the cumulative count crosses q. Returns NaN on an
// empty histogram.
func HistQuantile(h Hist, q float64) float64 {
	total := h.Count()
	if total == 0 {
		return math.NaN()
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h {
		cum += c
		if cum >= target {
			return float64(h.Bound(i))
		}
	}
	return float64(h.Bound(len(h) - 1))
}
