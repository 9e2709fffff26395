// Package perfdb defines the durable record of the performance lab: a
// versioned JSON snapshot schema holding repeated timing samples per
// (implementation, class, kernel, level) row together with derived
// GFLOP/s and bandwidth figures and host/git provenance, plus save/load
// with strict validation and a pairwise comparison that attributes a
// whole-benchmark delta to the specific rows that moved.
//
// Snapshots are written as BENCH_<gitsha>.json at the repository root by
// cmd/mgbench -fig perf; a checked-in BENCH_baseline.json is the CI
// gate's reference. The schema is versioned (Schema field) so a loader
// can refuse files it does not understand instead of silently
// misreading them.
package perfdb

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"

	"repro/internal/perfstat"
)

// SchemaVersion is the snapshot schema this build writes and the only one
// it reads. Version 2 added the per-row Variant field (the kernel backend
// the samples measured).
const SchemaVersion = 2

// Key identifies one snapshot row.
type Key struct {
	Impl   string
	Class  string
	Kernel string
	Level  int
}

// String renders e.g. "SAC/S subRelax@5".
func (k Key) String() string {
	return fmt.Sprintf("%s/%s %s@%d", k.Impl, k.Class, k.Kernel, k.Level)
}

// less orders keys for the canonical row order: class, impl, kernel, level.
func (k Key) less(o Key) bool {
	if k.Class != o.Class {
		return k.Class < o.Class
	}
	if k.Impl != o.Impl {
		return k.Impl < o.Impl
	}
	if k.Kernel != o.Kernel {
		return k.Kernel < o.Kernel
	}
	return k.Level < o.Level
}

// Row is one measured (implementation, class, kernel, level) series.
type Row struct {
	Impl   string `json:"impl"`
	Class  string `json:"class"`
	Kernel string `json:"kernel"`
	Level  int    `json:"level"`
	// Samples are per-solve seconds attributed to this row, in execution
	// order, after warm-up discard but before outlier rejection (the
	// comparison re-runs rejection so the raw record stays complete).
	Samples []float64 `json:"samples"`
	// Median, Mean and the bootstrap CI bounds are derived from Samples
	// at snapshot time for human consumption; Compare recomputes them.
	Median float64 `json:"median"`
	Mean   float64 `json:"mean"`
	CILow  float64 `json:"ciLow"`
	CIHigh float64 `json:"ciHigh"`
	// Calibration is the median wall time (seconds) of the fixed
	// perfstat.Spin workload interleaved with this row's samples. Compare
	// prefers it over the snapshot-level calibration because host speed
	// can drift between measurement blocks of one run. 0 = uncalibrated.
	Calibration float64 `json:"calibration,omitempty"`
	// Points is the index points one sample processes (constant across
	// samples of a row). Zero when the row has no point model.
	Points uint64 `json:"points,omitempty"`
	// GFLOPS and GBPerSec are derived from Points, the per-point cost
	// model (internal/metrics.Cost) and the median time. Zero when no
	// cost model applies.
	GFLOPS   float64 `json:"gflops,omitempty"`
	GBPerSec float64 `json:"gbPerSec,omitempty"`
	// Variant is the kernel backend this (kernel, level) ran when the
	// samples were taken ("scalar", "buffered" or "simd"; see
	// withloop.VariantFor). Empty on rows of kernels without variant
	// dispatch (e.g. the whole-benchmark total). Provenance only — Compare matches rows
	// by Key regardless of variant, so a variant flip shows up as a
	// timing delta, which is exactly what changed.
	Variant string `json:"variant,omitempty"`
}

// Key returns the row's identity.
func (r Row) Key() Key { return Key{Impl: r.Impl, Class: r.Class, Kernel: r.Kernel, Level: r.Level} }

// NewRow builds a row with the derived statistics filled in.
func NewRow(key Key, samples []float64) Row {
	clean := perfstat.RejectOutliers(samples)
	lo, hi := perfstat.BootstrapCI(clean, 0.95, 1000)
	return Row{
		Impl: key.Impl, Class: key.Class, Kernel: key.Kernel, Level: key.Level,
		Samples: samples,
		Median:  perfstat.Median(clean),
		Mean:    perfstat.Mean(clean),
		CILow:   lo,
		CIHigh:  hi,
	}
}

// Host records where a snapshot was taken. Comparisons across differing
// hosts are still reported, but the table carries a warning — absolute
// times from different machines are not commensurable.
type Host struct {
	GoVersion string `json:"goVersion"`
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	Hostname  string `json:"hostname,omitempty"`
}

// CollectHost fills a Host from the running process.
func CollectHost() Host {
	name, _ := os.Hostname()
	return Host{
		GoVersion: runtime.Version(),
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Hostname:  name,
	}
}

// Git records the source state a snapshot measured.
type Git struct {
	// SHA is the HEAD commit, or "unknown" outside a git checkout.
	SHA string `json:"sha"`
	// Dirty reports uncommitted changes in the working tree.
	Dirty bool `json:"dirty,omitempty"`
}

// CollectGit inspects the repository at dir. Failures degrade to
// SHA "unknown" rather than erroring: a snapshot from an exported
// tarball is still a snapshot.
func CollectGit(dir string) Git {
	g := Git{SHA: "unknown"}
	rev := exec.Command("git", "rev-parse", "HEAD")
	rev.Dir = dir
	if out, err := rev.Output(); err == nil {
		g.SHA = strings.TrimSpace(string(out))
	}
	st := exec.Command("git", "status", "--porcelain")
	st.Dir = dir
	if out, err := st.Output(); err == nil {
		g.Dirty = len(strings.TrimSpace(string(out))) > 0
	}
	return g
}

// ShortSHA returns the first 12 characters of the commit, for filenames.
func (g Git) ShortSHA() string {
	if len(g.SHA) > 12 {
		return g.SHA[:12]
	}
	return g.SHA
}

// Config records how the samples were collected.
type Config struct {
	Samples int `json:"samples"`
	Warmup  int `json:"warmup"`
	Workers int `json:"workers"`
}

// Snapshot is one complete benchmark record.
type Snapshot struct {
	Schema  int    `json:"schema"`
	Created string `json:"created"` // RFC3339, informational
	Host    Host   `json:"host"`
	Git     Git    `json:"git"`
	Config  Config `json:"config"`
	// Calibration is the median wall time (seconds) of the fixed
	// perfstat.Spin workload measured alongside the samples. Compare uses
	// the base/current ratio to normalize away host-speed differences
	// (frequency scaling, hypervisor steal); 0 means not calibrated and
	// disables normalization.
	Calibration float64 `json:"calibration,omitempty"`
	Rows        []Row   `json:"rows"`
}

// SortRows puts the rows into the canonical order (class, impl, kernel,
// level). Save calls it; Load verifies it held.
func (s *Snapshot) SortRows() {
	sort.Slice(s.Rows, func(i, j int) bool { return s.Rows[i].Key().less(s.Rows[j].Key()) })
}

// Validate checks the schema invariants and returns a descriptive error
// for the first violation: version match, non-empty rows, unique keys,
// named impl/class/kernel, and finite non-negative samples.
func (s *Snapshot) Validate() error {
	if s.Schema != SchemaVersion {
		return fmt.Errorf("perfdb: unsupported schema version %d (this build reads version %d)",
			s.Schema, SchemaVersion)
	}
	if len(s.Rows) == 0 {
		return fmt.Errorf("perfdb: snapshot has no rows")
	}
	if math.IsNaN(s.Calibration) || math.IsInf(s.Calibration, 0) || s.Calibration < 0 {
		return fmt.Errorf("perfdb: calibration %v is not a finite non-negative duration", s.Calibration)
	}
	seen := make(map[Key]bool, len(s.Rows))
	for i, r := range s.Rows {
		key := r.Key()
		if r.Impl == "" || r.Class == "" || r.Kernel == "" {
			return fmt.Errorf("perfdb: row %d (%s) has an empty impl, class or kernel", i, key)
		}
		if seen[key] {
			return fmt.Errorf("perfdb: duplicate row %s", key)
		}
		seen[key] = true
		if len(r.Samples) == 0 {
			return fmt.Errorf("perfdb: row %s has no samples", key)
		}
		for j, v := range r.Samples {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				return fmt.Errorf("perfdb: row %s sample %d is %v (want finite and >= 0)", key, j, v)
			}
		}
		if math.IsNaN(r.Calibration) || math.IsInf(r.Calibration, 0) || r.Calibration < 0 {
			return fmt.Errorf("perfdb: row %s calibration %v is not a finite non-negative duration", key, r.Calibration)
		}
	}
	return nil
}

// write marshals the snapshot (canonically sorted, validated) to w.
func (s *Snapshot) write(w io.Writer) error {
	s.SortRows()
	if err := s.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Save writes the snapshot to path (atomically via a sibling temp file).
func (s *Snapshot) Save(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("perfdb: save: %w", err)
	}
	if err := s.write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("perfdb: save: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("perfdb: save: %w", err)
	}
	return nil
}

// read unmarshals and validates a snapshot from r.
func read(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("perfdb: not a benchmark snapshot: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s.SortRows()
	return &s, nil
}

// Load reads and validates the snapshot at path.
func Load(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("perfdb: load: %w", err)
	}
	defer f.Close()
	s, err := read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
