// The anomaly flight recorder: an always-on, fixed-size, lock-free ring
// of recent per-job stage records plus short histories of queue depth
// and health verdicts. Writers pay one atomic increment and one pointer
// store per record — bounded memory, ~zero cost when idle — so the
// recorder can stay enabled in production. On an anomaly trigger
// (non-finite norm, queue-full burst, drain start, SIGQUIT) or an HTTP
// request it serializes itself to a JSON snapshot: the last N jobs with
// their full stage decompositions, the recent congestion history, and
// the last health verdicts — the postmortem of "what was the service
// doing when it went wrong?".
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Dump trigger reasons.
const (
	ReasonNonFinite      = "non-finite-norm"
	ReasonQueueFullBurst = "queue-full-burst"
	ReasonDrain          = "drain"
	ReasonSignal         = "sigquit"
	ReasonRequest        = "http-request"
)

// Ring capacities: recent terminal jobs, queue-depth samples and health
// verdicts.
const (
	jobSlots    = 256
	depthSlots  = 512
	healthSlots = 32
)

// DepthSample is one point of the queue-depth history.
type DepthSample struct {
	UnixNano int64 `json:"unixNano"`
	Queued   int   `json:"queued"`
	Running  int   `json:"running"`
}

// HealthMark is one recorded health verdict.
type HealthMark struct {
	UnixNano int64  `json:"unixNano"`
	Verdict  string `json:"verdict"`
}

// FlightRecorder is the ring set. All Note/Add methods are lock-free
// (an atomic counter claims a slot, an atomic pointer publishes the
// record) and safe for any number of concurrent writers; Snapshot and
// Trigger are concurrent-safe readers. A nil *FlightRecorder drops
// everything for free.
type FlightRecorder struct {
	cfg Config

	jobs      []atomic.Pointer[JobRecord]
	jobSeq    atomic.Uint64
	depth     []atomic.Pointer[DepthSample]
	depthSeq  atomic.Uint64
	health    []atomic.Pointer[HealthMark]
	healthSeq atomic.Uint64

	dumps atomic.Uint64

	// Dump rate limiting and the rejection-burst trigger state; these
	// paths are off the per-job hot path, so a mutex is fine.
	mu         sync.Mutex
	lastDump   time.Time
	burstStart time.Time
	burstCount int
}

// newFlightRecorder builds a recorder with cfg's dump directory and its
// dump and burst timing; New fills their defaults.
func newFlightRecorder(cfg Config) *FlightRecorder {
	return &FlightRecorder{
		cfg:    cfg,
		jobs:   make([]atomic.Pointer[JobRecord], jobSlots),
		depth:  make([]atomic.Pointer[DepthSample], depthSlots),
		health: make([]atomic.Pointer[HealthMark], healthSlots),
	}
}

// add records one terminal job, stamping its Seq. The oldest record in
// the ring is overwritten once the ring has wrapped.
func (r *FlightRecorder) add(rec JobRecord) {
	if r == nil {
		return
	}
	seq := r.jobSeq.Add(1) - 1
	// Copy into a fresh variable so the heap allocation (the stored
	// pointer escapes) happens after the nil check — a nil recorder's
	// Add must stay allocation-free, not pay for an escaping parameter.
	stored := rec
	stored.Seq = seq
	r.jobs[seq%uint64(len(r.jobs))].Store(&stored)
}

// noteDepth records one queue-depth sample.
func (r *FlightRecorder) noteDepth(queued, running int) {
	if r == nil {
		return
	}
	s := &DepthSample{UnixNano: time.Now().UnixNano(), Queued: queued, Running: running}
	seq := r.depthSeq.Add(1) - 1
	r.depth[seq%uint64(len(r.depth))].Store(s)
}

// noteHealth records one health verdict.
func (r *FlightRecorder) noteHealth(verdict string) {
	if r == nil {
		return
	}
	m := &HealthMark{UnixNano: time.Now().UnixNano(), Verdict: verdict}
	seq := r.healthSeq.Add(1) - 1
	r.health[seq%uint64(len(r.health))].Store(m)
}

// noteRejection feeds the queue-full-burst trigger: when BurstCount
// rejections land inside one BurstWindow, the recorder dumps itself
// once (subject to the dump rate limit) and resets the window. Returns
// the dump path and true when a dump was written.
func (r *FlightRecorder) noteRejection() (string, bool) {
	if r == nil {
		return "", false
	}
	now := time.Now()
	r.mu.Lock()
	if r.burstStart.IsZero() || now.Sub(r.burstStart) > r.cfg.BurstWindow {
		r.burstStart = now
		r.burstCount = 0
	}
	r.burstCount++
	fire := r.burstCount >= r.cfg.BurstCount
	if fire {
		r.burstStart = time.Time{}
		r.burstCount = 0
	}
	r.mu.Unlock()
	if !fire {
		return "", false
	}
	return r.Trigger(ReasonQueueFullBurst)
}

// Dump is one serialized flight-recorder snapshot.
type Dump struct {
	// Time is the snapshot wall time; Reason the trigger.
	Time   string `json:"time"`
	Reason string `json:"reason"`
	// Jobs are the retained records, oldest first; JobsSeen is the
	// lifetime admission count (JobsSeen − len(Jobs) records have been
	// overwritten).
	Jobs     []JobRecord `json:"jobs"`
	JobsSeen uint64      `json:"jobsSeen"`
	// Depth is the recent queue-depth history, oldest first.
	Depth []DepthSample `json:"depth,omitempty"`
	// Health is the recent health-verdict history, oldest first.
	Health []HealthMark `json:"health,omitempty"`
	// Dumps counts snapshots taken before this one.
	Dumps uint64 `json:"dumps"`
}

// snapshot collects the rings into a Dump. Concurrent writers may land
// mid-snapshot; each slot read is atomic, so every record is internally
// consistent and ordering is restored by Seq.
func (r *FlightRecorder) snapshot(reason string) Dump {
	d := Dump{
		Time:   time.Now().UTC().Format(time.RFC3339Nano),
		Reason: reason,
	}
	if r == nil {
		return d
	}
	d.JobsSeen = r.jobSeq.Load()
	d.Dumps = r.dumps.Load()
	for i := range r.jobs {
		if rec := r.jobs[i].Load(); rec != nil {
			d.Jobs = append(d.Jobs, *rec)
		}
	}
	sort.Slice(d.Jobs, func(i, j int) bool { return d.Jobs[i].Seq < d.Jobs[j].Seq })
	for i := range r.depth {
		if s := r.depth[i].Load(); s != nil {
			d.Depth = append(d.Depth, *s)
		}
	}
	sort.Slice(d.Depth, func(i, j int) bool { return d.Depth[i].UnixNano < d.Depth[j].UnixNano })
	for i := range r.health {
		if m := r.health[i].Load(); m != nil {
			d.Health = append(d.Health, *m)
		}
	}
	sort.Slice(d.Health, func(i, j int) bool { return d.Health[i].UnixNano < d.Health[j].UnixNano })
	return d
}

// WriteTo serializes a snapshot with the given reason as indented JSON.
func (r *FlightRecorder) WriteTo(w io.Writer, reason string) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.snapshot(reason))
}

// Trigger takes an anomaly snapshot: rate-limited by DumpMinInterval
// (a burst of anomalies produces one postmortem, not hundreds) and
// written to a timestamped JSON file under FlightDir; the file appears
// under its final name only once complete. Without a FlightDir the
// trigger only bumps the dump counter — the snapshot stays available via
// Snapshot/HTTP. Returns the file path (empty without a FlightDir) and
// whether the trigger fired.
func (r *FlightRecorder) Trigger(reason string) (string, bool) {
	if r == nil {
		return "", false
	}
	now := time.Now()
	r.mu.Lock()
	if !r.lastDump.IsZero() && now.Sub(r.lastDump) < r.cfg.DumpMinInterval {
		r.mu.Unlock()
		return "", false
	}
	r.lastDump = now
	r.mu.Unlock()
	n := r.dumps.Add(1)
	if r.cfg.FlightDir == "" {
		return "", true
	}
	path := filepath.Join(r.cfg.FlightDir,
		fmt.Sprintf("flight-%s-%d-%s.json", now.UTC().Format("20060102T150405"), n, reason))
	if err := r.writeFile(path, reason); err != nil {
		return "", false
	}
	return path, true
}

// writeFile writes a snapshot to path through a sibling temp file and a
// rename, so that a reader — or a crash mid-dump, the moment a postmortem
// matters most — never finds a partial file under the final name.
func (r *FlightRecorder) writeFile(path, reason string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = r.WriteTo(f, reason)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) // best effort: the dump already failed
	}
	return err
}

// Dumps returns the number of triggers that fired.
func (r *FlightRecorder) Dumps() uint64 {
	if r == nil {
		return 0
	}
	return r.dumps.Load()
}
