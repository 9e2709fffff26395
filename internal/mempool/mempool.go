// Package mempool models SAC's dynamic memory management.
//
// SAC is purely functional: every array operation conceptually produces a
// fresh array, and the runtime system reclaims argument arrays through
// reference counting. The paper attributes the residual scalability loss of
// the MG benchmark to exactly this subsystem: "the absolute overhead
// incurred by memory management operations is invariant against grid sizes
// involved, [so] it is negligible for large grids but shows a growing
// performance impact with decreasing grid size".
//
// This package reproduces that behaviour with a size-classed free list:
// a released buffer of n elements satisfies the next request for exactly n
// elements, which is the common case in MG where the same per-level grid
// sizes recur every V-cycle (SAC's reference-count-driven immediate reuse
// has the same effect). The pool keeps allocation statistics so experiments
// can report how much traffic the memory manager absorbs, and it can be
// disabled to measure the cost of always allocating — the malloc-per-op
// ablation in bench_test.go.
//
// Like SAC's heap manager, which allocates an array's descriptor with its
// data, the pool recycles whole arrays: Release retains the array header
// beside its buffer, and the next NewArray of that size re-points the
// header instead of allocating one, so a warm solve creates no garbage
// for the Go collector either.
package mempool

import (
	"fmt"
	"sync"

	"repro/internal/array"
	"repro/internal/shape"
)

// Stats counts memory-manager events since the pool was created or Reset.
type Stats struct {
	// Allocs is the number of requests that had to allocate fresh memory.
	Allocs uint64
	// Reuses is the number of requests satisfied from the free list.
	Reuses uint64
	// Puts is the number of buffers returned to the pool.
	Puts uint64
	// Discards is the number of returned buffers dropped because the free
	// list for their size class was full.
	Discards uint64
	// BytesAllocated is the total fresh memory allocated, in bytes.
	BytesAllocated uint64
}

// String summarizes the statistics on one line.
func (s Stats) String() string {
	return fmt.Sprintf("allocs=%d reuses=%d puts=%d discards=%d bytes=%d",
		s.Allocs, s.Reuses, s.Puts, s.Discards, s.BytesAllocated)
}

// Pool is a size-classed free list of float64 buffers. The zero value is
// not usable; call New. A nil *Pool behaves like a disabled pool (every
// request allocates, every Put is dropped), so callers can thread an
// optional pool without nil checks.
//
// A Pool is safe for concurrent use. A process-global pool shared by many
// concurrent solves (see Shared) hands each solve a Scope: a view whose
// buffers come from and return to the shared free lists but whose Stats
// count only that solve's traffic — per-job accounting over one arena.
type Pool struct {
	mu      sync.Mutex
	free    map[int][]slot
	stats   Stats
	enabled bool
	// paranoid tracks live buffers to detect release-discipline bugs
	// (double Put, Put of a foreign buffer) — the errors a real
	// reference-counting runtime must never make. Keys are the address of
	// the first element.
	paranoid map[*float64]bool
	// root is non-nil on scopes: the arena whose free lists, mutex and
	// configuration this view delegates to. The scope's own stats field is
	// then guarded by root.mu (scopes hold no lock of their own).
	root *Pool
}

// slot is one retained buffer and, when it was released as an array, that
// array's header (nil for raw buffers).
type slot struct {
	buf []float64
	hdr *array.Array
}

// arena resolves the pool that owns the free lists: the pool itself, or
// the root for scopes.
func (p *Pool) arena() *Pool {
	if p.root != nil {
		return p.root
	}
	return p
}

// Scope returns a per-job view of the pool: GetDirty and Put operate on the
// parent's free lists (and count in the parent's Stats as usual), but the
// scope's own Stats count only the traffic that went through this view.
// Scopes are cheap; create one per job. Scope of a scope shares the same
// root arena.
func (p *Pool) Scope() *Pool {
	return &Pool{root: p.arena()}
}

// The process-global arena, created on first use.
var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the process-global recycling arena, created on first
// use. Concurrent solves of a resident daemon draw their grids from it
// through per-job Scopes, so same-size buffers released by one solve
// satisfy the next solve's requests.
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = New(true) })
	return sharedPool
}

// maxPerSize bounds the number of retained buffers per size class.
// MG needs at most a handful of same-size temporaries alive at once.
const maxPerSize = 8

// New creates a pool. If enabled is false the pool degenerates to plain
// allocation but still counts events, which keeps the ablation code paths
// identical.
func New(enabled bool) *Pool {
	return &Pool{free: make(map[int][]slot), enabled: enabled}
}

// SetParanoid enables (or disables) release-discipline checking: every
// buffer handed out is tracked, and Put panics when given a buffer that
// is not currently live — a double release or a foreign buffer.
// SAC's reference-counting correctness argument corresponds exactly to
// this discipline; the MG solvers run their test suites with it on.
func (p *Pool) SetParanoid(on bool) {
	a := p.arena()
	a.mu.Lock()
	defer a.mu.Unlock()
	if on {
		a.paranoid = make(map[*float64]bool)
	} else {
		a.paranoid = nil
	}
}

// GetDirty returns a buffer of exactly n float64s with unspecified contents.
// Use it when every element will be overwritten (modarray, full genarray).
func (p *Pool) GetDirty(n int) []float64 {
	return p.get(n).buf
}

// NewArray returns a zeroed array of the given shape over a pooled buffer.
func (p *Pool) NewArray(shp shape.Shape) *array.Array {
	a := p.NewArrayDirty(shp)
	a.Zero()
	return a
}

// NewArrayDirty returns an array of the given shape with unspecified
// contents over a pooled buffer, reusing the header the buffer was
// released with when there is one.
func (p *Pool) NewArrayDirty(shp shape.Shape) *array.Array {
	s := p.get(shp.Size())
	if s.hdr != nil {
		return s.hdr.Rewrap(shp, s.buf)
	}
	return array.Wrap(shp, s.buf)
}

// get takes a buffer of exactly n float64s off the free list, or
// allocates one.
func (p *Pool) get(n int) slot {
	if p == nil {
		return slot{buf: make([]float64, n)}
	}
	a := p.arena()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.enabled {
		if list := a.free[n]; len(list) > 0 {
			s := list[len(list)-1]
			list[len(list)-1] = slot{}
			a.free[n] = list[:len(list)-1]
			a.stats.Reuses++
			if p != a {
				p.stats.Reuses++
			}
			a.track(s.buf)
			return s
		}
	}
	a.stats.Allocs++
	a.stats.BytesAllocated += uint64(n) * 8
	if p != a {
		p.stats.Allocs++
		p.stats.BytesAllocated += uint64(n) * 8
	}
	buf := make([]float64, n)
	a.track(buf)
	return slot{buf: buf}
}

// track registers a live buffer under paranoid checking (caller holds mu).
func (p *Pool) track(buf []float64) {
	if p.paranoid != nil && len(buf) > 0 {
		p.paranoid[&buf[0]] = true
	}
}

// Put returns a buffer to the pool for reuse. The caller must not use buf
// afterwards. Putting a nil or empty buffer is a no-op.
func (p *Pool) Put(buf []float64) {
	p.put(slot{buf: buf})
}

// Release returns an array — buffer and header — to the pool. The caller
// must not use a afterwards: the next NewArray of its size hands the same
// header out again.
func (p *Pool) Release(a *array.Array) {
	p.put(slot{buf: a.Data(), hdr: a})
}

func (p *Pool) put(s slot) {
	if p == nil || len(s.buf) == 0 {
		return
	}
	a := p.arena()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.paranoid != nil {
		key := &s.buf[0]
		if !a.paranoid[key] {
			panic("mempool: Put of a buffer that is not live (double release or foreign buffer)")
		}
		delete(a.paranoid, key)
	}
	a.stats.Puts++
	if p != a {
		p.stats.Puts++
	}
	n := len(s.buf)
	if !a.enabled || len(a.free[n]) >= maxPerSize {
		a.stats.Discards++
		if p != a {
			p.stats.Discards++
		}
		return
	}
	a.free[n] = append(a.free[n], s)
}

// Stats returns a snapshot of the counters: the whole arena's for a root
// pool, this view's traffic only for a Scope.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	a := p.arena()
	a.mu.Lock()
	defer a.mu.Unlock()
	return p.stats
}

// Reset drops all retained buffers and zeroes the counters. On a Scope it
// zeroes only the scope's counters — the shared arena is untouched.
func (p *Pool) Reset() {
	if p == nil {
		return
	}
	a := p.arena()
	a.mu.Lock()
	defer a.mu.Unlock()
	p.stats = Stats{}
	if p != a {
		return
	}
	a.free = make(map[int][]slot)
	if a.paranoid != nil {
		a.paranoid = make(map[*float64]bool)
	}
}

// Live returns the number of buffers currently tracked as outstanding
// (paranoid mode only; 0 otherwise). A steady-state leak in a solver
// shows up as Live growing across iterations.
func (p *Pool) Live() int {
	if p == nil {
		return 0
	}
	a := p.arena()
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.paranoid)
}
