// Package mgmpi implements NAS-MG in the style of the MPI-based parallel
// reference implementation — the comparison the paper's future-work
// section asks for (§7: "a direct comparison with the MPI-based parallel
// reference implementation of NAS-MG would be interesting").
//
// The grid is decomposed into slabs: R ranks split axis 0, each owns
// N/R consecutive planes of every distributed level with halo planes
// either side, and the periodic boundary update becomes an exchange of
// whole planes with the two ring neighbours; the other two axes wrap
// within the rank. (NPB-MPI uses a 3-D processor grid. Slabs suffice:
// 2R ≤ N admits 16 ranks at class S and 128 at A, and a slab ships fewer
// bytes and computes less, DESIGN.md §4.5.)
//
// The coarse levels are solved redundantly: below the coarsest
// distributed level lcd every rank holds the whole grids. Each rank
// restricts its level-lcd slab onto its share of level lcd−1 locally, one
// allgather assembles that residual on every rank, every rank runs the
// serial rest of the V-cycle, and each prolongs its own window back onto
// its slab — no rank idles and nothing is broadcast. lcd−1 is chosen by
// rule, not by flag: the finest level whose whole grid has at most
// wl.DefaultSeqThreshold points (16³), SAC's threshold for a grid too small
// to split, unless the rank count needs a coarser cut — a distributed
// level keeps at least two planes per rank, so the restriction/prolongation
// pairing stays rank-local. (NPB-MPI instead deactivates processors;
// redundant coarse solves are the documented substitution, DESIGN.md §4.)
//
// No grid crosses the wire at set-up either. As in NPB-MPI's zran3, each
// rank scans its own planes of the random field, the ranks swap their
// ten largest and ten smallest values with positions (one 40-value message
// per ordered pair), and each merges them in rank order and writes the
// charges that fall in its own slab, halos included (reset).
//
// The package is the decomposition and the halo schedule, not the
// arithmetic, and it computes internal/core's bits. Every distributed
// level runs core's pipelined V-cycle legs on the rank's slab
// (core.ResidProjectPlanes down at the finest level, core.CorrectPlanes up
// at each level), and halos are exchanged between legs only, at the depth
// the next leg reads: per V-cycle one two-plane exchange of the finest u
// and, at each lower distributed level, one of r after its projection and
// one of that level's correction. The whole-grid levels are core's own
// V-cycle: each rank runs core.Solver.VCycle on the allgathered residual,
// over the rank's line-buffer pool and workers. Core keeps SAC's
// threshold, so a whole grid of at most wl.DefaultSeqThreshold points runs
// inline on the rank: every one up to 16 ranks; from 32 ranks the
// whole-grid levels above 16³ fan over the workers. Either way the update is
// core's: u + (z + S·(r − A·z)) with z = Q·zn at the finest level, not
// mg.f's u += Q·z, and every plane runs in whichever backend
// core.PlaneVariant picks for its rows (Solver.Variant reports it).
// internal/f77 and cport stay the independent paper artifacts.
//
// Correctness: a plane's statements do not depend on the plane schedule,
// every backend is bit-identical, every global plane has one owner, and
// the norm reduction uses the canonical plane association of
// nas.Norm2u3Planes, so the per-iteration rnm2 is core's, bit for bit,
// across rank counts, threads, sync/overlapped exchange, transports and
// backends (asserted by tests). The package also reports the
// communication volume per benchmark run (messages and bytes), the
// quantity a real distributed run pays for.
package mgmpi

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/mempool"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/nasrand"
	"repro/internal/sched"
	"repro/internal/shape"
	"repro/internal/stencil"
	wl "repro/internal/withloop"
)

// Message tags. The halo tags tell the two directions apart, so protocol
// errors surface as tag mismatches.
const (
	tagAllgather = iota + 1
	tagCharges
	tagNorm
	tagHaloBase // a face going up; tagHaloBase+1, a face going down
)

// Solver runs the benchmark on a simulated MPI world.
type Solver struct {
	// Class is the NPB size class.
	Class nas.Class
	// Procs is the world size: the number of slabs axis 0 is split into.
	Procs int
	// IterNorms, when non-nil, receives the NPB norms after the initial
	// residual (iter 0) and after every V-cycle iteration (iter 1..Iter),
	// invoked on rank 0. Each intermediate report costs one collective
	// norm reduction; the default nil adds no communication.
	IterNorms func(iter int, rnm2, rnmu float64)
	// Trace, when non-nil, receives rank-tagged V-cycle events: the
	// "resid"/"mg3P" phase spans per rank, per-level kernel spans
	// (resid/smooth/fine2coarse/coarse2fine) inside the V-cycle, one
	// "send"/"recv" event per point-to-point message (peer, tag, level,
	// iteration, bytes and per-stream sequence number — enough for
	// cmd/mgtrace to pair both sides of every exchange across ranks),
	// plus iteration markers and the whole-solve summary from rank 0.
	// Rank identifies the emitter, so a multi-rank run becomes one
	// Perfetto process per rank. The tracer is safe for the ranks'
	// concurrent emits; tracing never changes the arithmetic (rnm2
	// stays bit-identical, asserted by tests).
	Trace *metrics.Tracer
	// OnIter, when non-nil, is invoked on every rank after each completed
	// V-cycle iteration (1-based), before any intermediate norm
	// reduction. cmd/mgrank uses it to kill a rank mid-solve at a
	// deterministic point for fault-injection tests.
	OnIter func(rank, iter int)
	// Overlap selects the overlapped halo exchange, a span order: the
	// spans holding a face's planes compute first, the faces go out, the
	// interior span computes while the wire drains, and only then are the
	// halos received (DESIGN.md §4.7). It sends the synchronous path's
	// messages, and per-iteration rnm2 is bit-identical to it — the split
	// reorders whole planes, never the statements within one.
	Overlap bool
	// Threads is the number of sched.Pool workers each rank drives over
	// its plane loops (hybrid MPI×SMP). 0 or 1 keeps the rank serial.
	// Planes are disjoint per worker and folded in plane order, so rnm2
	// stays bit-identical for every thread count.
	Threads int

	world     *mpi.World    // in-process mode (New)
	transport mpi.Transport // single-rank mode (NewWithTransport)
	// mem lends the plane kernels their line buffers. It outlives a run, so
	// a solver's second solve finds them warm; in-process ranks share it.
	mem *mempool.Pool
}

// New creates a solver over `ranks` in-process ranks, each owning a slab;
// it panics on a rank count ValidateProcs rejects.
func New(class nas.Class, ranks int) *Solver {
	if err := ValidateProcs(class, ranks); err != nil {
		panic(err.Error())
	}
	return &Solver{Class: class, Procs: ranks, world: mpi.NewWorld(ranks), mem: mempool.New(true)}
}

// ValidateProcs reports whether class splits into slabs over `ranks`: a
// power of two with at least two planes per rank (2·ranks ≤ class.N).
func ValidateProcs(class nas.Class, ranks int) error {
	if ranks < 1 || ranks&(ranks-1) != 0 || 2*ranks > class.N {
		return fmt.Errorf("mgmpi: the rank count must be a power of two with 2*ranks <= %d, got %d", class.N, ranks)
	}
	return nil
}

// NewWithTransport creates one rank's view of a distributed solve over
// an external transport — typically an mpinet TCP mesh, where each rank
// is its own OS process and t is its endpoint. The world is t.Size()
// slabs, as in New; the algorithm (and therefore the per-iteration rnm2)
// is identical to the in-process channel world. Run the solve with
// RunRank.
func NewWithTransport(class nas.Class, t mpi.Transport) (*Solver, error) {
	if err := ValidateProcs(class, t.Size()); err != nil {
		return nil, err
	}
	return &Solver{Class: class, Procs: t.Size(), transport: t, mem: mempool.New(true)}, nil
}

// Ranks returns the world size.
func (s *Solver) Ranks() int { return s.Procs }

// Variant reports the plane-kernel backend the ranks run at the finest
// level ("scalar", "buffered" or "simd"): core.PlaneVariant of the finest
// rows, which a slab does not split. Observation only — every backend
// computes the same bits.
func (s *Solver) Variant() string { return core.PlaneVariant(s.Class.N) }

// Stats returns the accumulated communication totals of all runs so
// far: every rank's counters summed for an in-process world, this
// process's rank alone in transport mode.
func (s *Solver) Stats() mpi.Stats {
	if s.world == nil {
		return s.transport.Stats()
	}
	return s.world.TotalStats()
}

// RankReport is one rank's outcome of a solve — cmd/mgrank's -json
// object, which the harness decodes: the verdict plus this rank's
// mpi.Stats, with the per-(peer, tag) rows and the blocked-time /
// queue-depth histograms (power-of-two buckets).
type RankReport struct {
	Rank     int     `json:"rank"`
	Ranks    int     `json:"np"`
	Class    string  `json:"class"`
	Overlap  bool    `json:"overlap,omitempty"`
	Threads  int     `json:"threads,omitempty"`
	Variant  string  `json:"variant"` // plane-kernel backend of the finest level
	Rnm2     float64 `json:"rnm2"`
	Rnm2Bits uint64  `json:"rnm2Bits"` // exact bit pattern, for differential checks
	Rnmu     float64 `json:"rnmu"`
	Verified bool    `json:"verified"`
	Seconds  float64 `json:"seconds"`
	mpi.Stats
}

// Report returns the RankReport of a finished solve that returned rnm2
// and rnmu in seconds; its Stats are those of Solver.Stats.
func (s *Solver) Report(rank int, rnm2, rnmu, seconds float64) RankReport {
	verified, _ := s.Class.Verify(rnm2)
	return RankReport{
		Rank: rank, Ranks: s.Ranks(), Class: string(s.Class.Name),
		Overlap: s.Overlap, Threads: s.Threads, Variant: s.Variant(),
		Rnm2: rnm2, Rnm2Bits: math.Float64bits(rnm2), Rnmu: rnmu,
		Verified: verified, Seconds: seconds, Stats: s.Stats(),
	}
}

// Run executes the full benchmark (reset, initial residual, Iter ×
// (V-cycle + residual), norms) across the in-process world and returns
// the final NPB norms. Only valid for solvers built with New.
func (s *Solver) Run() (rnm2, rnmu float64) {
	results := make([][2]float64, s.Ranks())
	s.world.Run(func(c *mpi.Comm) {
		n2, nu := s.runRank(c)
		results[c.Rank()] = [2]float64{n2, nu}
	})
	return results[0][0], results[0][1]
}

// RunRank executes this process's share of the benchmark over the
// transport the solver was built with (NewWithTransport) and returns
// the final NPB norms, valid on every rank (the norm reduction ends
// with a broadcast). Communication failures — a dead peer, a corrupt
// frame, a timeout — surface as panics from the mpi.Comm veneer naming
// the rank and tag; the caller (cmd/mgrank) recovers them into an exit
// status.
func (s *Solver) RunRank() (rnm2, rnmu float64) {
	if s.transport == nil {
		panic("mgmpi: RunRank requires a solver built with NewWithTransport")
	}
	return s.runRank(mpi.NewComm(s.transport))
}

// runRank is the per-rank benchmark body, identical under both modes.
func (s *Solver) runRank(c *mpi.Comm) (rnm2, rnmu float64) {
	rank := c.Rank()
	var obs *commObserver
	if s.Trace != nil {
		// Interpose the trace observer between the solver and the
		// transport: every Send/Recv below emits a pairable event. The
		// untraced path keeps the bare transport — no wrapper, no cost.
		obs = newCommObserver(c.Transport(), s.Trace)
		c = mpi.NewComm(obs)
	}
	st := newRankState(c, s.Class)
	st.mem = s.mem
	st.overlap = s.Overlap
	if s.Threads > 1 {
		st.pool = sched.NewPool(s.Threads)
		defer st.pool.Close()
	}
	st.obs = obs
	st.trace = s.Trace
	st.coarse = core.New(&wl.Env{Sched: cmp.Or(st.pool, sched.Sequential), Pool: st.mem, Opt: wl.O3,
		SeqThreshold: wl.DefaultSeqThreshold})
	st.coarse.Smoother = st.cs
	if st.trace != nil {
		st.coarse.Probe = st.span
	}
	st.reset()
	start := time.Now()
	st.another = s.Class.Iter > 0
	st.kspan("resid", st.lt, st.evalResid)
	report := func(iter int, n2, nu float64) {
		if s.IterNorms != nil && rank == 0 {
			s.IterNorms(iter, n2, nu)
		}
	}
	// norms() is collective; every rank must agree on whether the
	// intermediate reductions run, which they do because IterNorms
	// is read from the shared Solver (or the same flag passed to every
	// mgrank process).
	if s.IterNorms != nil {
		n2, nu := st.norms()
		report(0, n2, nu)
	}
	for it := 0; it < s.Class.Iter; it++ {
		if rank == 0 && s.Trace != nil {
			s.Trace.Emit(metrics.Event{Ev: "iter", Iter: it + 1, Level: s.Class.LT()})
		}
		if obs != nil {
			obs.iter = it + 1
		}
		st.kspan("mg3P", st.lt, st.mg3P)
		st.another = it+1 < s.Class.Iter
		st.kspan("resid", st.lt, st.evalResid)
		if s.OnIter != nil {
			s.OnIter(rank, it+1)
		}
		if s.IterNorms != nil && it+1 < s.Class.Iter {
			n2, nu := st.norms()
			report(it+1, n2, nu)
		}
	}
	n2, nu := st.norms()
	report(s.Class.Iter, n2, nu)
	if rank == 0 && s.Trace != nil {
		s.Trace.Emit(metrics.Event{Ev: "solve", Level: s.Class.LT(),
			Nanos: int64(time.Since(start)), Iter: s.Class.Iter, Rnm2: n2})
	}
	return n2, nu
}

// --- per-rank state -------------------------------------------------------------

// rankState is one rank's view of the problem: its slab hierarchy for
// the distributed levels and the whole residual of the coarse levels every
// rank solves.
type rankState struct {
	c     *mpi.Comm
	class nas.Class
	lt    int // finest level
	lcd   int // coarsest distributed level; 1..lcd−1 are whole on every rank
	a, cs stencil.Coeffs

	// u, r hold the rank's slabs of levels lcd−1..lt; at lcd−1 they are the
	// rank's share of the whole grid — the restriction the allgather ships
	// (r) and the window of the coarse solution it prolongs from (u). u's
	// slabs store two halo planes either side (plane q at index q+1,
	// uShape), the depth core's legs read.
	u, r map[int]*array.Array
	v    *array.Array // finest right-hand-side slab

	// another: a V-cycle follows the residual evalResid computes, so its
	// projection's halo is exchanged.
	another bool

	// whole is the residual of level lcd−1, whole on every rank, and coarse
	// runs the levels below lcd on it (core's VCycle), drawing its grids
	// from mem. Its levels of at most wl.DefaultSeqThreshold points run
	// inline; only larger ones (lcd > 5, from 32 ranks) fan over pool.
	whole  *array.Array
	coarse *core.Solver

	// overlap selects the overlapped exchange's span order
	// (Solver.Overlap); pool, when non-nil, fans each kernel's plane loop
	// over multiple workers (Solver.Threads). Both nil/false by default.
	overlap bool
	pool    *sched.Pool
	mem     *mempool.Pool // line buffers of the plane kernels (Solver.mem)

	scratch []float64 // the allgather's packed slab, between packBox and the Sends that copy it

	// norms' per-plane partials (planeTot: per global plane, rank 0) and
	// the result rank 0 broadcasts, allocated once per solve.
	planes, planeMax, planeTot []float64
	normOut                    [2]float64

	// obs, when tracing, is the transport observer whose level/iter
	// fields tag every send/recv event; trace receives the kernel spans.
	// Both nil on the untraced path.
	obs   *commObserver
	trace *metrics.Tracer
}

// setCommLevel tags subsequent send/recv events with the grid level the
// messages belong to. No-op without a tracer.
func (st *rankState) setCommLevel(level int) {
	if st.obs != nil {
		st.obs.level = level
	}
}

// kspan times f and emits it as a rank-tagged span at a level when
// tracing (bare call otherwise).
func (st *rankState) kspan(kernel string, level int, f func()) {
	if st.trace == nil {
		f()
		return
	}
	start := time.Now()
	f()
	st.span(kernel, level, time.Since(start))
}

// span emits one rank-tagged span; as core's Probe it files the regions of
// the whole-grid levels.
func (st *rankState) span(kernel string, level int, elapsed time.Duration) {
	st.trace.Emit(metrics.Event{Ev: "span", Kernel: kernel, Level: level, Nanos: int64(elapsed), Rank: st.c.Rank()})
}

func newRankState(c *mpi.Comm, class nas.Class) *rankState {
	lt := class.LT()
	// Coarsest distributed level: one above the finest level whose whole
	// grid has at most wl.DefaultSeqThreshold points (2^(3l) ≤ 4096: level
	// 4, 16³), and at least two planes per rank, so every slab starts on an
	// even global plane and the restriction/prolongation pairing stays
	// rank-local.
	lcd := (bits.Len(uint(wl.DefaultSeqThreshold))-1)/3 + 1
	for 1<<lcd < 2*c.Size() {
		lcd++
	}
	lcd = min(lcd, lt)
	st := &rankState{
		c: c, class: class, lt: lt, lcd: lcd,
		a: stencil.A, cs: class.SmootherCoeffs(),
		u: map[int]*array.Array{}, r: map[int]*array.Array{},
	}
	for l := lcd - 1; l <= lt; l++ {
		st.u[l] = array.New(st.uShape(l))
		st.r[l] = array.New(st.boxShape(l))
	}
	st.v = array.New(st.boxShape(lt))
	st.whole = array.New(class.ExtShape(lcd - 1))
	lp := st.local(lt)
	st.planes = make([]float64, lp, lp+1) // + the local max, on the wire
	st.planeMax = make([]float64, lp)
	if c.Rank() == 0 {
		st.planeTot = make([]float64, 1<<lt)
	}
	return st
}

// local returns the number of interior planes this rank owns at a
// distributed level.
func (st *rankState) local(level int) int { return (1 << level) / st.c.Size() }

// boxShape is the shape of the rank's slab at a level, one halo plane
// either side: its planes, every row and column.
func (st *rankState) boxShape(level int) shape.Shape {
	n := 1 << level
	return shape.Of(st.local(level)+2, n+2, n+2)
}

// uShape is the shape of u's slab at a level: two more halo planes.
func (st *rankState) uShape(level int) shape.Shape {
	shp := st.boxShape(level)
	shp[0] += 2
	return shp
}

// neighbour returns the rank delta slabs up the ring (−1: down).
func (st *rankState) neighbour(delta int) int {
	return (st.c.Rank() + delta + st.c.Size()) % st.c.Size()
}

// --- allgather --------------------------------------------------------------------------

// packBox copies the box [lo, hi] (inclusive) of d (extents n1×n2 within
// planes) row by row into buf — replaced if it is too small, nil for a
// one-off — and returns the packed values.
func packBox(buf, d []float64, n1, n2 int, lo, hi [3]int) []float64 {
	if n := (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1) * (hi[2] - lo[2] + 1); cap(buf) < n {
		buf = make([]float64, 0, n)
	}
	out := buf[:0]
	for i := lo[0]; i <= hi[0]; i++ {
		for j := lo[1]; j <= hi[1]; j++ {
			base := (i*n1 + j) * n2
			out = append(out, d[base+lo[2]:base+hi[2]+1]...)
		}
	}
	return out
}

// copyBox copies the box [lo, hi] of src (extents sn1×sn2 within planes)
// onto the box of the same extents at dstLo of dst (dn1×dn2).
func copyBox(dst []float64, dn1, dn2 int, dstLo [3]int, src []float64, sn1, sn2 int, lo, hi [3]int) {
	width := hi[2] - lo[2] + 1
	for i := lo[0]; i <= hi[0]; i++ {
		s := (i*sn1+lo[1])*sn2 + lo[2]
		t := ((dstLo[0]+i-lo[0])*dn1+dstLo[1])*dn2 + dstLo[2]
		for j := lo[1]; j <= hi[1]; j++ {
			copy(dst[t:t+width], src[s:s+width])
			s, t = s+sn2, t+dn2
		}
	}
}

// unpack writes a received payload into the box [lo, hi] of d and gives
// it back to the transport. A payload that is not the box's size — a
// peer speaking another protocol — is an error naming this rank and the
// length, not an index panic or a partial copy.
func (st *rankState) unpack(d []float64, n1, n2 int, lo, hi [3]int, payload []float64) {
	ext := [3]int{hi[0] - lo[0] + 1, hi[1] - lo[1] + 1, hi[2] - lo[2] + 1}
	if want := ext[0] * ext[1] * ext[2]; len(payload) != want {
		panic(fmt.Sprintf("mgmpi: rank %d: payload of %d values for a box of %d", st.c.Rank(), len(payload), want))
	}
	copyBox(d, n1, n2, lo, payload, ext[1], ext[2], [3]int{}, [3]int{ext[0] - 1, ext[1] - 1, ext[2] - 1})
	st.c.Release(payload)
}

// rankBoxOf returns rank r's interior box at a level in extended-global
// coordinates: its planes, every interior row and column.
func (st *rankState) rankBoxOf(level, r int) (lo, hi [3]int) {
	lp, n := st.local(level), 1<<level
	return [3]int{r*lp + 1, 1, 1}, [3]int{(r + 1) * lp, n, n}
}

// allgather assembles the residual of level g = lcd−1 whole on every rank:
// each rank posts the interior of its slab r[g] to every other rank, then
// takes theirs in rank order into the interior of whole, whose halo core's
// V-cycle refreshes.
func (st *rankState) allgather() {
	g := st.lcd - 1
	st.setCommLevel(g)
	box, full := st.r[g], st.whole
	bs, m := box.Shape(), full.Shape()
	interiorLo := [3]int{1, 1, 1}
	interiorHi := [3]int{bs[0] - 2, bs[1] - 2, bs[2] - 2}
	me := st.c.Rank()
	st.scratch = packBox(st.scratch, box.Data(), bs[1], bs[2], interiorLo, interiorHi)
	for dst := 0; dst < st.c.Size(); dst++ {
		if dst != me {
			st.c.Send(dst, tagAllgather, st.scratch)
		}
	}
	for src := 0; src < st.c.Size(); src++ {
		lo, hi := st.rankBoxOf(g, src)
		if src == me {
			copyBox(full.Data(), m[1], m[2], lo, box.Data(), bs[1], bs[2], interiorLo, interiorHi)
		} else {
			st.unpack(full.Data(), m[1], m[2], lo, hi, st.c.Recv(src, tagAllgather))
		}
	}
}

// project is the plane loop of the restriction of the fine slab rk onto
// the coarse one rj. Slab alignment makes the cell mapping local:
// coarse local (j3,j2,j1) sits under fine local (2j3, 2j2, 2j1).
func (st *rankState) project(rk, rj *array.Array) func(core.PlaneSpan) {
	fn := rk.Shape()[2]
	fd, cd := rk.Data(), rj.Data()
	variant := core.PlaneVariant(rj.Shape()[2] - 2)
	return func(p core.PlaneSpan) {
		core.ProjectCondensePlanes(st.mem, cd, fd, fn, p, variant, stencil.P)
	}
}

// window copies this rank's window of the whole coarse solution full of
// level g = lcd−1, its halo current — its coarse planes, one halo plane
// either side and one more below, which the way up at lcd reads — into its
// slab u[g], from which the finer level prolongs.
func (st *rankState) window(full *array.Array) {
	g := st.lcd - 1
	win, fs := st.u[g], full.Shape()
	lo, hi := st.rankBoxOf(g, st.c.Rank())
	// Whole planes, global plane lo−2 … hi+1; the one below plane 0 wraps.
	pl := fs[1] * fs[2]
	for q := lo[0] - 2; q <= hi[0]+1; q++ {
		src := q
		if src < 0 {
			src += fs[0] - 2
		}
		i := q - lo[0] + 2
		copy(win.Data()[i*pl:(i+1)*pl], full.Data()[src*pl:])
	}
}

// --- driver -----------------------------------------------------------------------

// reset builds the initial state on newRankState's zeroed grids: v, the
// zran3 right-hand side, in the rank's slab, halos included. Each rank
// scans its own planes for the ten largest and ten smallest values
// (nas.Zran3Scan), posts them to every other rank, merges every rank's
// candidates in rank order (the order of their planes, so the merge is the
// serial scan's) and writes the charges and their periodic images that
// fall in its slab. No grid moves and no halo is exchanged: R·(R−1)
// messages of 40 values.
func (st *rankState) reset() {
	n, me, ranks := st.class.N, st.c.Rank(), st.c.Size()
	mine := nas.Zran3Scan(n, nasrand.DefaultSeed, me*n/ranks+1, (me+1)*n/ranks)
	st.setCommLevel(st.lt)
	out := packCandidates(mine)
	for dst := 0; dst < ranks; dst++ {
		if dst != me {
			st.c.Send(dst, tagCharges, out)
		}
	}
	var all nas.Extremes
	for src := 0; src < ranks; src++ {
		if src == me {
			all.Merge(mine)
			continue
		}
		payload := st.c.Recv(src, tagCharges)
		all.Merge(st.unpackCandidates(src, payload))
		st.c.Release(payload)
	}
	all.Fill(st.v, n, [3]int{me * st.local(st.lt), 0, 0})
}

// packCandidates lays a scan's candidates out as one charge message: the
// large ones, then the small ones, nas.Zran3Charges (value, flat offset)
// pairs each, offset −1 in a slot the scan left empty.
func packCandidates(e nas.Extremes) []float64 {
	out := make([]float64, 0, 4*nas.Zran3Charges)
	for _, list := range [2][]nas.Extreme{e.Large, e.Small} {
		for i := 0; i < nas.Zran3Charges; i++ {
			if i < len(list) {
				out = append(out, list[i].Val, float64(list[i].Pos))
			} else {
				out = append(out, 0, -1)
			}
		}
	}
	return out
}

// unpackCandidates reads rank src's charge message back into its scan's
// candidates. A payload of another length — a peer speaking another
// protocol — is an error naming both ranks and the length.
func (st *rankState) unpackCandidates(src int, payload []float64) nas.Extremes {
	if len(payload) != 4*nas.Zran3Charges {
		panic(fmt.Sprintf("mgmpi: rank %d: charge message of %d values from rank %d, want %d",
			st.c.Rank(), len(payload), src, 4*nas.Zran3Charges))
	}
	read := func(pairs []float64) []nas.Extreme {
		var list []nas.Extreme
		for i := 0; i < len(pairs); i += 2 {
			if pairs[i+1] >= 0 {
				list = append(list, nas.Extreme{Val: pairs[i], Pos: int(pairs[i+1])})
			}
		}
		return list
	}
	half := 2 * nas.Zran3Charges
	return nas.Extremes{Large: read(payload[:half]), Small: read(payload[half:])}
}

// mg3P is one V-cycle. The finest r and its projection come from the way
// down of the residual before it (evalResid); the distributed levels below
// project and exchange r, except the last restriction, onto the rank's
// share of level lcd−1, which the allgather that follows makes whole on
// every rank. Every rank then runs core's V-cycle on it, takes its window
// of the coarse solution, and on the way up each distributed level runs
// core's leg and exchanges the result. With a tracer attached every leg,
// projection and core region is also emitted as a per-level span, so the
// comm report can attribute compute vs blocked time per level.
func (st *rankState) mg3P() {
	lt, lcd, g := st.lt, st.lcd, st.lcd-1
	for l := lt - 1; l >= lcd; l-- {
		st.kspan("fine2coarse", l-1, func() {
			project := st.project(st.r[l], st.r[l-1])
			if l-1 == g {
				st.forPlanes(core.PlaneSpan{Lo: 1, Hi: st.local(g)}, project)
				return
			}
			st.haloed(st.r[l-1], l-1, halo{1, 1}, st.framed(st.r[l-1], project))
		})
	}
	st.allgather()
	z := st.coarse.VCycle(st.whole)
	nas.Comm3(z) // core leaves z's boundary value in its halo, not the periodic image
	st.window(z)
	st.coarse.Env.Release(z)
	for l := lcd; l <= lt; l++ {
		st.kspan("correct", l, func() { st.correct(l) })
	}
}

// correct is the way up at distributed level l: z + S·(r − A·z)
// with z = Q·zn into u[l] — at the finest level u + that, in place — and
// the exchange of u[l]'s halo the next leg reads: two planes below and one
// above for the next level's prolongation, two either side for the finest
// level's residual.
func (st *rankState) correct(l int) {
	u, zn, r := st.u[l], st.u[l-1], st.r[l]
	n, lp := u.Shape()[2], st.local(l)
	od, zd, rd := u.Data(), zn.Data(), r.Data()
	var ud []float64
	h := halo{2, 1}
	if l == st.lt {
		ud, h = od, halo{2, 2}
	}
	st.haloed(u, l, h, func(p core.PlaneSpan) {
		core.CorrectPlanes(st.mem, od, ud, zd, rd, n, lp, p, st.a, st.cs, stencil.Q)
	})
}

// evalResid computes the finest-level residual r = v − A·u. When another
// V-cycle follows it is core's way down, which also projects
// r onto the next level (onto the rank's share of level lcd−1 when that is
// the next) and computes r's halo planes; the projection's halo is
// exchanged unless it is that share. After the last V-cycle only the
// norms read r, so r's interior planes alone are computed.
func (st *rankState) evalResid() {
	lt := st.lt
	u, v, r, rn := st.u[lt], st.v, st.r[lt], st.r[lt-1]
	n, lp := u.Shape()[2], st.local(lt)
	ud, vd, rd, rnd := u.Data(), v.Data(), r.Data(), rn.Data()
	if !st.another {
		// u stores plane q at index q+1; the residual kernel reads it at q.
		variant := core.PlaneVariant(n - 2)
		st.forPlanes(core.PlaneSpan{Lo: 1, Hi: lp}, func(p core.PlaneSpan) {
			core.SubRelaxPlanes(st.mem, rd, vd, ud[n*n:], n, p, variant, st.a, nil, nil)
		})
		return
	}
	down := func(p core.PlaneSpan) {
		core.ResidProjectPlanes(st.mem, rd, rnd, vd, ud, n, lp, p, st.a, stencil.P)
	}
	if lt-1 < st.lcd {
		st.forPlanes(core.PlaneSpan{Lo: 1, Hi: lp / 2}, down)
		return
	}
	st.haloed(rn, lt-1, halo{1, 1}, down)
}

// norms computes the NPB norms over the distributed finest grid in the
// canonical plane association of nas.Norm2u3Planes: a running
// left-to-right sum per row, rows folded ascending into per-plane
// partials, plane partials folded in ascending global plane order. Each
// rank computes the partials of its own planes and sends them (plus its
// local max) to rank 0, which accumulates per-global-plane totals in rank
// order, folds the planes ascending, and broadcasts the result. Every
// global plane has exactly one contributor, so the grand total is
// bit-identical to the serial Norm2u3Planes for every rank count. One rank
// short-circuits all communication.
func (st *rankState) norms() (rnm2, rnmu float64) {
	r := st.r[st.lt]
	shp := r.Shape()
	d := r.Data()
	planes, planeMax := st.planes, st.planeMax // one per plane the rank owns
	// Per-plane partials may run on concurrent workers: each plane writes
	// its own slot, and the serial folds below (ascending planes for the
	// sum, any order for the max) keep the canonical association.
	st.forPlanes(core.PlaneSpan{Lo: 1, Hi: len(planes)}, func(p core.PlaneSpan) {
		for i3 := p.Lo; i3 <= p.Hi; i3++ {
			var planeSum, planeAbs float64
			for i2 := 1; i2 < shp[1]-1; i2++ {
				base := (i3*shp[1] + i2) * shp[2]
				var rowSum float64
				rowSum, planeAbs = nas.SumSquares(d[base+1:base+shp[2]-1], planeAbs)
				planeSum += rowSum
			}
			planes[i3-1] = planeSum
			planeMax[i3-1] = planeAbs
		}
	})
	var maxAbs float64
	for _, m := range planeMax {
		if m > maxAbs {
			maxAbs = m
		}
	}
	total := float64(st.class.N)
	total = total * total * total
	st.setCommLevel(st.lt)
	if st.c.Size() == 1 {
		var sum float64
		for _, p := range planes {
			sum += p
		}
		return math.Sqrt(sum / total), maxAbs
	}
	if st.c.Rank() != 0 {
		st.c.Send(0, tagNorm, append(planes, maxAbs)) // into planes' spare slot
		res := st.c.Broadcast(tagNorm, 0, nil)
		rnm2, rnmu = res[0], res[1]
		st.c.Release(res)
		return rnm2, rnmu
	}
	planeTot := st.planeTot
	clear(planeTot)
	addPlanes := func(rank int, part []float64) {
		g0 := rank * st.local(st.lt)
		for i, p := range part {
			planeTot[g0+i] += p
		}
	}
	addPlanes(0, planes)
	for src := 1; src < st.c.Size(); src++ {
		payload := st.c.Recv(src, tagNorm)
		addPlanes(src, payload[:len(payload)-1])
		if m := payload[len(payload)-1]; m > maxAbs {
			maxAbs = m
		}
		st.c.Release(payload)
	}
	var sum float64
	for _, p := range planeTot {
		sum += p
	}
	rnm2 = math.Sqrt(sum / total)
	st.normOut = [2]float64{rnm2, maxAbs}
	st.c.Broadcast(tagNorm, 0, st.normOut[:])
	return rnm2, maxAbs
}
