// Package sched is the shared-memory parallel runtime underneath the
// WITH-loop engine — the Go counterpart of SAC's implicit multithreading
// backend (Grelck, IFL'98/PhD'01), which the paper uses to parallelize the
// MG benchmark "without any additional programming effort".
//
// The runtime owns a pool of persistent worker goroutines and partitions
// one-dimensional iteration spaces across them under one of four scheduling
// policies (static block, static cyclic, dynamic self-scheduling, guided).
// The calling goroutine always participates as worker 0, so a pool of W
// workers uses W goroutines total, not W+1.
//
// Determinism contract: a For body only ever writes to positions derived
// from its own sub-range, and Reduce combines per-block partial results in
// block order. Consequently every computation in this repository produces
// bit-identical results for any worker count and any policy — a property
// the test suite checks and the MG cross-implementation verification relies
// on.
//
// Sequential threshold: SAC's runtime executes WITH-loops over small index
// spaces sequentially because fork/join overhead would dominate (the paper
// discusses exactly this effect on the coarse V-cycle grids). For mirrors
// that with ForOptions.SeqThreshold.
package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Policy selects how an iteration space is partitioned across workers.
type Policy int

const (
	// StaticBlock gives each worker one contiguous block of roughly n/W
	// iterations. Lowest overhead; the default, and what SAC's compiler
	// generates for uniform WITH-loops.
	StaticBlock Policy = iota
	// StaticCyclic deals fixed-size chunks round-robin to the workers.
	// Balances loops whose per-iteration cost varies periodically.
	StaticCyclic
	// Dynamic lets workers grab fixed-size chunks from a shared counter
	// (self-scheduling). Balances irregular loops at the cost of one
	// atomic operation per chunk.
	Dynamic
	// Guided is Dynamic with geometrically shrinking chunks, in the style
	// of OpenMP schedule(guided).
	Guided
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case StaticBlock:
		return "static-block"
	case StaticCyclic:
		return "static-cyclic"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Policies lists every scheduling policy, in declaration order.
func Policies() []Policy {
	return []Policy{StaticBlock, StaticCyclic, Dynamic, Guided}
}

// ForOptions tunes one parallel loop execution.
type ForOptions struct {
	// Policy is the partitioning strategy. Zero value is StaticBlock.
	Policy Policy
	// Chunk is the chunk size for StaticCyclic and Dynamic and the minimum
	// chunk for Guided. 0 means a policy-specific default.
	Chunk int
	// SeqThreshold executes the loop inline on the caller when the
	// iteration count is at or below it. 0 means "always parallelize"
	// (when the pool has more than one worker).
	SeqThreshold int
}

// Pool is a set of persistent worker goroutines. A Pool with one worker
// executes everything inline on the caller; that is the natural "compiled
// for sequential execution" mode of the paper's Fig. 11.
//
// A Pool is safe for concurrent use: several goroutines may execute For
// and Reduce on the same pool at once, in which case their chunks
// multiplex over the one worker set (the service mode of cmd/mgd, where
// many in-flight solves share one process-global pool). The determinism
// contract is unaffected — each call's partials combine in block order
// regardless of which physical worker ran them. SetMetrics and SetTracer
// remain single-owner configuration: call them before the pool executes
// loops, and never on a shared pool that other solves are using.
type Pool struct {
	nw     int
	work   chan func(worker int)
	closed atomic.Bool
	// persistent marks process-global pools (Sequential, Shared): Close
	// becomes a no-op so library code can unconditionally release its
	// runtime without tearing down a pool other solves still use.
	persistent bool
	// activeMu guards the dispatch channel against Close: For/Reduce hold
	// a read lock while fanning out, Close takes the write lock before
	// closing the channel, so a concurrent For either completes first or
	// observes closed and runs inline.
	activeMu sync.RWMutex
	wg       sync.WaitGroup
	// metrics, when non-nil, receives per-worker busy time for every
	// parallel fan-out (see SetMetrics). nil — the default — costs one
	// predictable nil check per fan-out.
	metrics *metrics.Collector
	// tracer, when non-nil, receives one "wspan" event per worker per
	// parallel fan-out (see SetTracer) — the raw material of the Perfetto
	// per-worker timeline tracks.
	tracer *metrics.Tracer
}

// SetMetrics attaches a collector that receives one RecordBusy per worker
// per parallel fan-out: the wall time the worker spent inside the loop
// body, the raw material of load-balance analysis. Call it before the
// pool executes loops (it is not synchronized against concurrent For).
// SetMetrics(nil) detaches.
func (p *Pool) SetMetrics(c *metrics.Collector) { p.metrics = c }

// SetTracer attaches a tracer that receives one Event{Ev: "wspan"} per
// worker per parallel fan-out: Worker spent Nanos inside the loop body,
// with the event's T stamping the span's end. Like SetMetrics, call it
// before the pool executes loops. SetTracer(nil) detaches.
//
// Note the sequential paths — a one-worker pool, or an iteration count at
// or below the sequential threshold — run inline on the caller and emit
// nothing, exactly as they skip RecordBusy: per-worker accounting
// describes parallel fan-outs only.
func (p *Pool) SetTracer(t *metrics.Tracer) { p.tracer = t }

// NewPool creates a pool with the given number of workers. workers <= 0
// selects runtime.GOMAXPROCS(0). The pool must be Closed when no longer
// needed unless it lives for the whole process.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{nw: workers}
	if workers > 1 {
		// Worker 0 is the calling goroutine; start workers 1..nw-1.
		p.work = make(chan func(worker int))
		for w := 1; w < workers; w++ {
			p.wg.Add(1)
			go p.worker(w)
		}
	}
	return p
}

func (p *Pool) worker(id int) {
	defer p.wg.Done()
	for f := range p.work {
		f(id)
	}
}

// NewPersistent creates a pool like NewPool and marks it persistent:
// Close is a no-op, so the pool can be handed to library code that
// releases its runtime unconditionally. Use for process-global pools
// that live until exit.
func NewPersistent(workers int) *Pool {
	p := NewPool(workers)
	p.persistent = true
	return p
}

// Workers returns the pool's worker count.
func (p *Pool) Workers() int { return p.nw }

// Persistent reports whether the pool is process-global (Sequential,
// Shared, or built with NewPersistent): such pools ignore Close and must
// not have per-run observers attached.
func (p *Pool) Persistent() bool { return p.persistent }

// Close shuts the worker goroutines down. For on a closed pool runs
// sequentially. Close is idempotent, a no-op on persistent pools, and
// safe against concurrent For/Reduce: in-flight fan-outs complete before
// the dispatch channel closes.
func (p *Pool) Close() {
	if p.persistent {
		return
	}
	if p.closed.CompareAndSwap(false, true) && p.work != nil {
		p.activeMu.Lock() // wait for in-flight fan-outs to drain
		close(p.work)
		p.activeMu.Unlock()
		p.wg.Wait()
	}
}

// enter attempts to begin a parallel fan-out: it takes the dispatch read
// lock and re-checks closed under it. On true the caller must call
// p.exit() when the fan-out is done; on false the caller must run inline.
func (p *Pool) enter() bool {
	if p.work == nil {
		return false
	}
	p.activeMu.RLock()
	if p.closed.Load() {
		p.activeMu.RUnlock()
		return false
	}
	return true
}

func (p *Pool) exit() { p.activeMu.RUnlock() }

// Sequential is a process-wide single-worker pool for callers that want the
// sequential semantics without creating a pool.
var Sequential = NewPersistent(1)

// The process-global multi-worker pool, created on first use.
var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the process-global multi-worker pool, sized
// runtime.GOMAXPROCS(0) and created on first use. It is persistent —
// Close is a no-op — and is the worker set that concurrent solves of a
// resident daemon (cmd/mgd) multiplex over. Callers must not attach
// metrics or tracers to it.
func Shared() *Pool {
	sharedOnce.Do(func() { sharedPool = NewPersistent(0) })
	return sharedPool
}

// For executes body over the half-open range [0, n), partitioned across the
// pool's workers according to opt. body(lo, hi, worker) processes the
// sub-range [lo, hi) on the given worker (0 <= worker < Workers()).
// For returns when the whole range has been processed. A panic in any body
// invocation is re-raised on the caller after all workers have finished.
func (p *Pool) For(n int, opt ForOptions, body func(lo, hi, worker int)) {
	if n <= 0 {
		return
	}
	if p.nw == 1 || n <= opt.SeqThreshold || !p.enter() {
		body(0, n, 0)
		return
	}
	defer p.exit()
	switch opt.Policy {
	case StaticBlock:
		p.forStaticBlock(n, body)
	case StaticCyclic:
		p.forStaticCyclic(n, opt.chunkOr(defaultChunk(n, p.nw)), body)
	case Dynamic:
		p.forDynamic(n, opt.chunkOr(defaultChunk(n, p.nw)), body)
	case Guided:
		p.forGuided(n, opt.chunkOr(1), body)
	default:
		panic(fmt.Sprintf("sched: unknown policy %d", int(opt.Policy)))
	}
}

func (o ForOptions) chunkOr(def int) int {
	if o.Chunk > 0 {
		return o.Chunk
	}
	return def
}

// defaultChunk aims at 4 chunks per worker, a common balance point between
// scheduling overhead and load balance.
func defaultChunk(n, nw int) int {
	c := n / (nw * 4)
	if c < 1 {
		c = 1
	}
	return c
}

// runOnAll executes part(worker) on every worker, blocking until all have
// returned and propagating the first panic.
func (p *Pool) runOnAll(part func(worker int)) {
	var (
		wg       sync.WaitGroup
		panicked atomic.Value
	)
	call := func(w int) {
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, fmt.Sprintf("sched: worker %d panicked: %v", w, r))
			}
			wg.Done()
		}()
		if m, tr := p.metrics, p.tracer; m != nil || tr != nil {
			start := time.Now()
			part(w)
			elapsed := time.Since(start)
			m.RecordBusy(w, elapsed) // nil-safe
			if tr != nil {
				tr.Emit(metrics.Event{Ev: "wspan", Worker: w, Nanos: int64(elapsed)})
			}
			return
		}
		part(w)
	}
	wg.Add(p.nw)
	for w := 1; w < p.nw; w++ {
		w := w
		p.work <- func(int) { call(w) }
	}
	call(0) // caller participates as worker 0
	wg.Wait()
	if msg := panicked.Load(); msg != nil {
		panic(msg)
	}
}

func (p *Pool) forStaticBlock(n int, body func(lo, hi, worker int)) {
	nw := p.nw
	p.runOnAll(func(w int) {
		lo := w * n / nw
		hi := (w + 1) * n / nw
		if lo < hi {
			body(lo, hi, w)
		}
	})
}

func (p *Pool) forStaticCyclic(n, chunk int, body func(lo, hi, worker int)) {
	nw := p.nw
	p.runOnAll(func(w int) {
		for lo := w * chunk; lo < n; lo += nw * chunk {
			hi := min(lo+chunk, n)
			body(lo, hi, w)
		}
	})
}

func (p *Pool) forDynamic(n, chunk int, body func(lo, hi, worker int)) {
	var next atomic.Int64
	p.runOnAll(func(w int) {
		for {
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= n {
				return
			}
			hi := min(lo+chunk, n)
			body(lo, hi, w)
		}
	})
}

func (p *Pool) forGuided(n, minChunk int, body func(lo, hi, worker int)) {
	var (
		mu   sync.Mutex
		next int
	)
	take := func() (lo, hi int, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if next >= n {
			return 0, 0, false
		}
		remaining := n - next
		chunk := remaining / (2 * p.nw)
		if chunk < minChunk {
			chunk = minChunk
		}
		lo = next
		hi = min(lo+chunk, n)
		next = hi
		return lo, hi, true
	}
	p.runOnAll(func(w int) {
		for {
			lo, hi, ok := take()
			if !ok {
				return
			}
			body(lo, hi, w)
		}
	})
}

// ReduceBlocks is the fixed block count Reduce decomposes every iteration
// space into (fewer when n is smaller). It is a constant — independent of
// the worker count — so that floating-point reductions combine in exactly
// the same tree for every pool size.
const ReduceBlocks = 64

// Reduce computes a deterministic parallel reduction over [0, n).
// partial(lo, hi) folds one sub-range starting from the neutral element;
// combine merges two partial results. The range is always decomposed into
// the same min(n, ReduceBlocks) blocks and the block partials are combined
// in ascending order, so the result is bit-identical for every worker count
// and scheduling policy — essential for floating-point reductions that feed
// verification. (The block structure does mean the result can differ in the
// last ulp from a flat left-to-right loop; callers comparing against such a
// loop must compare with a tolerance.)
func (p *Pool) Reduce(n int, opt ForOptions, neutral float64,
	partial func(lo, hi int) float64, combine func(a, b float64) float64) float64 {
	if n <= 0 {
		return neutral
	}
	nblocks := ReduceBlocks
	if nblocks > n {
		nblocks = n
	}
	parts := make([]float64, nblocks)
	fill := func(b int) {
		lo := b * n / nblocks
		hi := (b + 1) * n / nblocks
		parts[b] = partial(lo, hi)
	}
	if p.nw == 1 || n <= opt.SeqThreshold || !p.enter() {
		for b := 0; b < nblocks; b++ {
			fill(b)
		}
	} else {
		var next atomic.Int64
		p.runOnAll(func(int) {
			for {
				b := int(next.Add(1)) - 1
				if b >= nblocks {
					return
				}
				fill(b)
			}
		})
		p.exit()
	}
	acc := neutral
	for _, v := range parts {
		acc = combine(acc, v)
	}
	return acc
}
