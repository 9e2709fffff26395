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
	"io"
	"sort"
	"strconv"
	"sync"

	"repro/internal/metrics"
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

// peerTag keys a recorder's per-peer rows.
type peerTag struct{ peer, tag int }

// CommRecorder collects one rank's per-(peer, tag) rows and the two
// histograms. The zero value is ready to use.
type CommRecorder struct {
	mu      sync.Mutex
	peers   map[peerTag]*PeerStat
	blocked metrics.Hist // nanoseconds blocked per Send/Recv call
	depth   metrics.Hist // send-queue depth seen at enqueue time
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
	if queueDepth != NoQueue {
		r.depth.Observe(int64(queueDepth))
	}
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
	s.BlockedHist, s.QueueDepthHist = r.blocked, r.depth
}

// mergePeers folds another rank's rows into s by (peer, tag) — used by
// TotalStats and report code that aggregates a world. The result
// describes volume per (peer, tag) across all ranks; the Peer field then
// names the remote end as seen by each contributing rank.
func (s *Stats) mergePeers(rows []PeerStat) {
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
// format: aggregate counters, per-(peer, tag) labeled counters, and the
// blocked-time and queue-depth histograms. rank labels every series so
// scrapes from several mgrank processes aggregate cleanly.
func (s Stats) WritePrometheus(w io.Writer, rank int) error {
	p := metrics.NewPromWriter(w)
	r := strconv.Itoa(rank)
	p.Counter("mg_mpi_messages_total", "Point-to-point messages sent by this rank.", float64(s.Messages), "rank", r)
	p.Counter("mg_mpi_payload_bytes_total", "Payload bytes sent by this rank.", float64(s.Bytes), "rank", r)
	p.Counter("mg_mpi_wire_bytes_total", "Framed bytes put on the wire by this rank.", float64(s.WireBytes), "rank", r)
	p.Counter("mg_mpi_exchange_seconds_total", "Wall time blocked in communication.", float64(s.ExchangeNanos)/1e9, "rank", r)
	perPeer := func(name, help string, send, recv func(PeerStat) float64) {
		for _, ps := range s.Peers {
			peer, tag := strconv.Itoa(ps.Peer), strconv.Itoa(ps.Tag)
			p.Counter(name, help, send(ps), "rank", r, "peer", peer, "tag", tag, "dir", "send")
			p.Counter(name, help, recv(ps), "rank", r, "peer", peer, "tag", tag, "dir", "recv")
		}
	}
	perPeer("mg_mpi_peer_messages_total", "Messages exchanged with one peer under one tag, by direction.",
		func(ps PeerStat) float64 { return float64(ps.SentMsgs) }, func(ps PeerStat) float64 { return float64(ps.RecvMsgs) })
	perPeer("mg_mpi_peer_payload_bytes_total", "Payload bytes exchanged with one peer under one tag, by direction.",
		func(ps PeerStat) float64 { return float64(ps.SentBytes) }, func(ps PeerStat) float64 { return float64(ps.RecvBytes) })
	perPeer("mg_mpi_peer_blocked_seconds_total", "Time blocked in the transport per peer and tag, by direction.",
		func(ps PeerStat) float64 { return float64(ps.SendBlockedNanos) / 1e9 },
		func(ps PeerStat) float64 { return float64(ps.RecvBlockedNanos) / 1e9 })
	p.Histogram("mg_mpi_blocked_seconds", "Blocked time per Send/Recv call.", &s.BlockedHist, 1e9, "rank", r)
	p.Histogram("mg_mpi_send_queue_depth", "Departure-queue depth observed at enqueue.", &s.QueueDepthHist, 1, "rank", r)
	return p.Err()
}
