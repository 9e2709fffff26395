// Package tune is a per-loop-nest schedule autotuner for the WITH-loop
// engine. The paper relies on two global runtime policies — one scheduling
// strategy and one sequential threshold for every WITH-loop — but the best
// parameters differ per kernel and per grid level: the finest relaxation
// wants parallel blocked traversal, the 4³ coarse grids want to stay
// sequential, and cache tiling only pays above a level-dependent size.
// ComPar (PAPERS.md) demonstrates that choosing parallelization parameters
// per loop nest beats any single global setting; SAC's own runtime makes
// the sequential-threshold decision adaptively. This package generalises
// both: each (kernel, level) pair gets its own execution Plan.
//
// A Plan fixes the scheduling policy, chunk size, sequential threshold,
// cache tile size and inner-loop kernel variant (scalar, line-buffered or
// SIMD) of one kernel at one grid level. The Tuner calibrates plans
// online: the first executions of a key cycle through a candidate set
// (each candidate measured Trials times, best-of kept, NPB style), and
// once every candidate has been measured the fastest plan is cached and
// used for all subsequent executions. Calibration never changes results —
// every candidate plan produces bit-identical output (the determinism
// contract of internal/sched, the order-preserving norm accumulation of
// the fused kernels, and the shared canonical association of all kernel
// variants), so the tuner is free to experiment mid-run.
//
// Calibrated plans serialize to JSON (Save/Load), so a profile measured
// once can be shipped with a deployment and applied from the first
// iteration (cmd/mgbench -tuneplan).
package tune

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/sched"
	"repro/internal/simd"
)

// SeqAlways is a sequential-threshold value that forces sequential
// execution of any realistic index space — the "stay sequential" candidate
// for coarse grids.
const SeqAlways = 1 << 40

// Kernel-variant names for Plan.Kernel. An empty Kernel field means
// scalar, so profiles saved before the field existed load unchanged.
const (
	VariantScalar   = "scalar"
	VariantBuffered = "buffered"
	VariantSIMD     = "simd"
)

// ValidVariant reports whether s names a kernel variant ("" = scalar).
func ValidVariant(s string) bool {
	switch s {
	case "", VariantScalar, VariantBuffered, VariantSIMD:
		return true
	}
	return false
}

// minLinedExtent is the shortest interior row the line-buffered backends
// pay off on: below it the buffer fills cost more than the sub-sums they
// save.
const minLinedExtent = 8

// DefaultVariant is the static backend rule for a plane kernel at MG level
// `level` (interior extent 2^level) when nothing more specific — a forced
// variant or a tuner plan — applies: simd where the AVX2 path is live and
// the rows are long enough for the line buffers, scalar otherwise. Hosts
// without AVX2 stay scalar because the pure-Go simd fallback computes the
// full four-term combine the scalar loops specialise away, and measures
// slower.
func DefaultVariant(level int) string {
	if simd.Available() && 1<<level >= minLinedExtent {
		return VariantSIMD
	}
	return VariantScalar
}

// ForcedVariant returns the process-wide kernel-variant override from the
// MG_FORCE_VARIANT environment variable ("" when unset). Read once: the
// override is a CI/debug lever, not a runtime toggle.
var ForcedVariant = sync.OnceValue(func() string { return os.Getenv("MG_FORCE_VARIANT") })

// Plan is the tuned execution schedule of one kernel at one grid level.
type Plan struct {
	// Policy is the sched partitioning strategy.
	Policy sched.Policy `json:"policy"`
	// Chunk is the chunk size for the chunked policies (0 = default).
	Chunk int `json:"chunk,omitempty"`
	// SeqThreshold executes index spaces of at most this many elements
	// sequentially (SeqAlways = always sequential).
	SeqThreshold int `json:"seqThreshold,omitempty"`
	// Tile is the j/k cache-tile edge of the tiled rank-3 kernels
	// (0 = untiled full-plane traversal).
	Tile int `json:"tile,omitempty"`
	// Kernel selects the inner-loop backend of the rank-3 plane kernels:
	// VariantScalar, VariantBuffered or VariantSIMD. Empty means scalar
	// (the pre-variant profile format). The buffered and simd backends
	// ignore Tile (their line buffers already serialise full rows).
	Kernel string `json:"kernel,omitempty"`
}

// Variant returns the plan's kernel backend, mapping the empty field of
// old profiles to VariantScalar.
func (p Plan) Variant() string {
	if p.Kernel == "" {
		return VariantScalar
	}
	return p.Kernel
}

// ForOptions converts the plan into scheduler loop options.
func (p Plan) ForOptions() sched.ForOptions {
	return sched.ForOptions{Policy: p.Policy, Chunk: p.Chunk, SeqThreshold: p.SeqThreshold}
}

// String renders e.g. "dynamic tile=16" or "static-block seq".
func (p Plan) String() string {
	s := p.Policy.String()
	if p.SeqThreshold >= SeqAlways {
		s += " seq"
	} else if p.SeqThreshold > 0 {
		s += fmt.Sprintf(" seq<=%d", p.SeqThreshold)
	}
	if p.Chunk > 0 {
		s += fmt.Sprintf(" chunk=%d", p.Chunk)
	}
	if p.Tile > 0 {
		s += fmt.Sprintf(" tile=%d", p.Tile)
	}
	if v := p.Variant(); v != VariantScalar {
		s += " " + v
	}
	return s
}

// Key identifies one tuned loop nest: a kernel name and the MG grid level
// it runs on (log2 of the interior extent).
type Key struct {
	Kernel string
	Level  int
}

// String renders the JSON map key, e.g. "subRelax@5".
func (k Key) String() string { return fmt.Sprintf("%s@%d", k.Kernel, k.Level) }

// parseKey inverts Key.String.
func parseKey(s string) (Key, error) {
	at := strings.LastIndex(s, "@")
	if at < 0 {
		return Key{}, fmt.Errorf("tune: key %q has no @level suffix", s)
	}
	level, err := strconv.Atoi(s[at+1:])
	if err != nil {
		return Key{}, fmt.Errorf("tune: key %q: %v", s, err)
	}
	return Key{Kernel: s[:at], Level: level}, nil
}

// entry is the calibration state of one key.
type entry struct {
	cands  []Plan
	best   []time.Duration // minimum measured time per candidate
	trials []int           // measurements taken per candidate
	calls  int             // round-robin cursor
	chosen *Plan
}

// Tuner calibrates and caches Plans per (kernel, level). The zero value is
// not ready; use New. A Tuner is safe for concurrent use and may be shared
// across environments.
type Tuner struct {
	// Trials is how many measurements each candidate gets before the
	// fastest is chosen (0 means 2). More trials resist timing noise.
	Trials int
	// Now is the clock (nil means time.Now); tests inject a fake.
	Now func() time.Time
	// Observer, when non-nil, is called once per key when its plan
	// settles — at the end of calibration or on SetPlan/Load. The call is
	// made outside the tuner's lock, so an observer may call back into
	// the tuner. Set it before tuned execution starts.
	Observer func(Key, Plan)

	mu      sync.Mutex
	workers int
	entries map[Key]*entry
}

// New creates a tuner that calibrates for a pool of the given worker
// count. workers <= 1 restricts candidates to sequential plans (tile
// sweep only).
func New(workers int) *Tuner {
	return &Tuner{workers: workers, entries: map[Key]*entry{}}
}

// Workers returns the worker count the candidate set was built for.
func (t *Tuner) Workers() int { return t.workers }

func (t *Tuner) now() time.Time {
	if t.Now != nil {
		return t.Now()
	}
	return time.Now()
}

func (t *Tuner) trials() int {
	if t.Trials > 0 {
		return t.Trials
	}
	return 2
}

// candidates builds the plan candidates of one key. The interior extent at
// MG level L is 2^L, which bounds the useful tile sizes.
func (t *Tuner) candidates(key Key) []Plan {
	n := 1 << key.Level
	tiles := []int{0}
	for _, tile := range []int{8, 16, 32} {
		if tile < n {
			tiles = append(tiles, tile)
		}
	}
	var scheds []Plan
	if t.workers > 1 {
		scheds = []Plan{
			{Policy: sched.StaticBlock, SeqThreshold: SeqAlways}, // stay sequential
			{Policy: sched.StaticBlock},
			{Policy: sched.StaticCyclic},
			{Policy: sched.Dynamic},
			{Policy: sched.Guided},
		}
	} else {
		scheds = []Plan{{Policy: sched.StaticBlock, SeqThreshold: SeqAlways}}
	}
	// The variant candidates ride each scheduling policy untiled: the
	// buffered/simd backends ignore the tile edge, so tiled duplicates
	// would only dilute the calibration budget. Rows shorter than
	// minLinedExtent cannot amortise the line-buffer fills, so coarse
	// levels keep the scalar-only candidate set. The simd candidate is
	// offered only where the AVX2 path is live — elsewhere it would
	// measure identically to buffered arithmetic done the slower way.
	var variants []string
	if n >= minLinedExtent {
		variants = append(variants, VariantBuffered)
		if simd.Available() {
			variants = append(variants, VariantSIMD)
		}
	}
	plans := make([]Plan, 0, len(scheds)*(len(tiles)+len(variants)))
	for _, s := range scheds {
		for _, tile := range tiles {
			s.Tile = tile
			plans = append(plans, s)
		}
		s.Tile = 0
		for _, v := range variants {
			s.Kernel = v
			plans = append(plans, s)
		}
	}
	return plans
}

// Begin returns the plan to use for one execution of kernel at level, and
// a commit function the caller invokes when the execution has finished.
// While the key is calibrating, Begin cycles through the candidates and
// commit records the elapsed wall time; once calibrated, Begin returns the
// chosen plan and commit is a no-op.
func (t *Tuner) Begin(kernel string, level int) (Plan, func()) {
	key := Key{Kernel: kernel, Level: level}
	t.mu.Lock()
	e := t.entries[key]
	if e == nil {
		cands := t.candidates(key)
		e = &entry{
			cands:  cands,
			best:   make([]time.Duration, len(cands)),
			trials: make([]int, len(cands)),
		}
		t.entries[key] = e
	}
	if e.chosen != nil {
		plan := *e.chosen
		t.mu.Unlock()
		return plan, func() {}
	}
	idx := e.calls % len(e.cands)
	e.calls++
	plan := e.cands[idx]
	t.mu.Unlock()
	start := t.now()
	return plan, func() {
		elapsed := t.now().Sub(start)
		t.mu.Lock()
		if e.chosen != nil {
			t.mu.Unlock()
			return
		}
		if e.trials[idx] == 0 || elapsed < e.best[idx] {
			e.best[idx] = elapsed
		}
		e.trials[idx]++
		for _, n := range e.trials {
			if n < t.trials() {
				t.mu.Unlock()
				return
			}
		}
		chosen := e.cands[e.argmin()]
		e.chosen = &chosen
		observer := t.Observer
		t.mu.Unlock()
		if observer != nil {
			observer(key, chosen)
		}
	}
}

// argmin returns the index of the fastest measured candidate. Caller holds
// the lock; every candidate has at least one measurement.
func (e *entry) argmin() int {
	best := 0
	for i := 1; i < len(e.cands); i++ {
		if e.best[i] < e.best[best] {
			best = i
		}
	}
	return best
}

// snapshot returns the best-known plan of an entry: the chosen plan, or
// the current argmin while calibrating (ok=false with no measurements).
func (e *entry) snapshot() (Plan, bool) {
	if e.chosen != nil {
		return *e.chosen, true
	}
	measured := false
	for _, n := range e.trials {
		if n > 0 {
			measured = true
			break
		}
	}
	if !measured {
		return Plan{}, false
	}
	// Restrict argmin to measured candidates.
	best, bestT := -1, time.Duration(0)
	for i := range e.cands {
		if e.trials[i] > 0 && (best < 0 || e.best[i] < bestT) {
			best, bestT = i, e.best[i]
		}
	}
	return e.cands[best], true
}

// Settled reports whether every key seen so far has finished calibration.
// It is false until the first Begin.
func (t *Tuner) Settled() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.entries) == 0 {
		return false
	}
	for _, e := range t.entries {
		if e.chosen == nil {
			return false
		}
	}
	return true
}

// Plans returns the best-known plan per key: calibrated plans plus the
// current front-runner of any key still calibrating.
func (t *Tuner) Plans() map[Key]Plan {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[Key]Plan{}
	for key, e := range t.entries {
		if plan, ok := e.snapshot(); ok {
			out[key] = plan
		}
	}
	return out
}

// SetPlan installs a plan for a key, ending its calibration. The
// Observer, if set, is notified.
func (t *Tuner) SetPlan(key Key, plan Plan) {
	t.mu.Lock()
	p := plan
	t.entries[key] = &entry{chosen: &p}
	observer := t.Observer
	t.mu.Unlock()
	if observer != nil {
		observer(key, plan)
	}
}

// profile is the JSON document of Save/Load.
type profile struct {
	Workers int             `json:"workers"`
	Plans   map[string]Plan `json:"plans"`
}

// Save writes the best-known plans as JSON.
func (t *Tuner) Save(w io.Writer) error {
	plans := t.Plans()
	doc := profile{Workers: t.workers, Plans: make(map[string]Plan, len(plans))}
	for key, plan := range plans {
		doc.Plans[key.String()] = plan
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Load installs plans from a JSON document written by Save. Loaded keys
// skip calibration; unknown keys still calibrate on first use.
func (t *Tuner) Load(r io.Reader) error {
	var doc profile
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("tune: load: %w", err)
	}
	for name, plan := range doc.Plans {
		key, err := parseKey(name)
		if err != nil {
			return err
		}
		if !ValidVariant(plan.Kernel) {
			return fmt.Errorf("tune: key %q: unknown kernel variant %q", name, plan.Kernel)
		}
		t.SetPlan(key, plan)
	}
	return nil
}

// SaveFile writes the profile to a file.
func (t *Tuner) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("tune: save: %w", err)
	}
	if err := t.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a profile from a file.
func (t *Tuner) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("tune: load: %w", err)
	}
	defer f.Close()
	return t.Load(f)
}

// SortedKeys returns the tuner's keys ordered by kernel then level, for
// stable report output.
func SortedKeys(plans map[Key]Plan) []Key {
	keys := make([]Key, 0, len(plans))
	for k := range plans {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Kernel != keys[j].Kernel {
			return keys[i].Kernel < keys[j].Kernel
		}
		return keys[i].Level < keys[j].Level
	})
	return keys
}
