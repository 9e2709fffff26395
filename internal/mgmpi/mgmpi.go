// Package mgmpi implements NAS-MG in the style of the MPI-based parallel
// reference implementation — the comparison the paper's future-work
// section asks for (§7: "a direct comparison with the MPI-based parallel
// reference implementation of NAS-MG would be interesting").
//
// Like the NPB MPI code, the grid is decomposed over a 3-dimensional
// processor grid: each rank owns a sub-box with one halo cell on every
// side, and the periodic boundary update comm3 becomes a sequence of
// face exchanges, one axis at a time in the serial update's order
// (contiguous axis first), so edge and corner values propagate exactly as
// in the serial code.
//
// The coarse levels are solved redundantly: below the coarsest
// distributed level lcd every rank holds the whole grids. Each rank
// restricts its level-lcd box onto its share of level lcd−1 locally, one
// allgather assembles that residual on every rank, every rank runs the
// serial rest of the V-cycle, and each prolongs its own window back onto
// its box — no rank idles and nothing is broadcast. lcd−1 is chosen by
// rule, not by flag: the finest level whose whole grid has at most
// wl.DefaultSeqThreshold points (16³), SAC's threshold for a grid too small
// to split, unless the decomposition needs a coarser cut — a distributed
// level keeps at least two cells per rank on every distributed axis, so
// the restriction/prolongation pairing stays rank-local. (NPB-MPI instead
// deactivates processors; redundant coarse solves are the documented
// substitution, DESIGN.md §4.)
//
// A 1-D slab decomposition is the special case (R, 1, 1); New uses it,
// New3D takes an explicit processor grid.
//
// The package is the decomposition and the halo schedule, not the
// arithmetic, and it computes internal/core's bits. On a slab
// decomposition every distributed level runs core's pipelined V-cycle legs
// on the rank's slab (core.ResidProjectPlanes down at the finest level,
// core.CorrectPlanes up at each level), and halos are exchanged between
// legs only, at the depth the next leg reads: per V-cycle one two-plane
// exchange of the finest u and, at each lower distributed level, one of r
// after its projection and one of that level's correction. 3-D processor
// grids run the three-call kernels — resid, psinv, rprj3 and interp, thin
// callers of core's plane entry points (core/planes.go) — with a comm3
// after each, and so do the whole-grid levels. Either way the update is
// core's: u + (z + S·(r − A·z)) with z = Q·zn at the finest level, not
// mg.f's u += Q·z; r = v − A·u; u += S·r, and every plane runs in whichever
// backend core.PlaneVariant picks for its rows (Solver.Variant reports it).
// internal/f77 and cport stay the independent paper artifacts.
//
// Correctness: a plane's statements do not depend on the plane schedule,
// every backend is bit-identical, and the norm reduction uses the
// canonical plane association of nas.Norm2u3Planes, so for slab
// decompositions the per-iteration rnm2 is core's, bit for bit, across rank
// counts, threads, sync/overlapped exchange, transports and backends; 3-D
// processor grids split planes across ranks and are deterministic but not
// plane-exact, and the NPB verification still passes (all asserted by
// tests). The package also reports the communication volume per benchmark
// run (messages and bytes), the quantity a real distributed run pays for.
package mgmpi

import (
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
	"repro/internal/sched"
	"repro/internal/shape"
	"repro/internal/stencil"
	wl "repro/internal/withloop"
)

// Message tags. Halo tags are offset by axis so protocol errors surface
// as tag mismatches.
const (
	tagAllgather = iota + 1
	tagScatter
	tagNorm
	tagHaloBase // +2*axis (low face), +2*axis+1 (high face)
)

// Solver runs the benchmark on a simulated MPI world.
type Solver struct {
	// Class is the NPB size class.
	Class nas.Class
	// Procs is the processor grid (axis 0, 1, 2); the world size is
	// their product.
	Procs [3]int
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
	// reorders whole planes, never the statements within one. Requires a
	// 1-D slab decomposition (Procs = (R,1,1)); runRank panics otherwise.
	Overlap bool
	// Threads is the number of sched.Pool workers each rank drives over
	// its plane loops (hybrid MPI×SMP). 0 or 1 keeps the rank serial.
	// Planes are disjoint per worker and folded in plane order, so rnm2
	// stays bit-identical for every thread count.
	Threads int

	world     *mpi.World    // in-process mode (New/New3D)
	transport mpi.Transport // single-rank mode (NewWithTransport)
	// mem lends the plane kernels their line buffers. It outlives a run, so
	// a solver's second solve finds them warm; in-process ranks share it.
	mem *mempool.Pool
}

// New creates a 1-D slab-decomposed solver over `ranks` ranks — the
// processor grid (ranks, 1, 1).
func New(class nas.Class, ranks int) *Solver { return New3D(class, ranks, 1, 1) }

// New3D creates a solver over the processor grid (r0, r1, r2). Every
// extent must be a power of two, and every distributed axis must keep at
// least two cells per rank at some level (2·r ≤ class.N).
func New3D(class nas.Class, r0, r1, r2 int) *Solver {
	if err := ValidateProcs(class, r0, r1, r2); err != nil {
		panic(err.Error())
	}
	return &Solver{Class: class, Procs: [3]int{r0, r1, r2}, world: mpi.NewWorld(r0 * r1 * r2), mem: mempool.New(true)}
}

// ValidateProcs reports whether (r0, r1, r2) is a processor grid New3D
// accepts for class.
func ValidateProcs(class nas.Class, r0, r1, r2 int) error {
	for _, r := range [3]int{r0, r1, r2} {
		if r < 1 || r&(r-1) != 0 || (r > 1 && 2*r > class.N) {
			return fmt.Errorf("mgmpi: processor grid extents must be powers of two with 2*r <= %d, got (%d,%d,%d)",
				class.N, r0, r1, r2)
		}
	}
	return nil
}

// NewWithTransport creates one rank's view of a distributed solve over
// an external transport — typically an mpinet TCP mesh, where each rank
// is its own OS process and t is its endpoint. The processor grid is
// the 1-D slab decomposition (t.Size(), 1, 1), matching New; the
// algorithm (and therefore the per-iteration rnm2) is identical to the
// in-process channel world. Run the solve with RunRank.
func NewWithTransport(class nas.Class, t mpi.Transport) (*Solver, error) {
	if err := ValidateProcs(class, t.Size(), 1, 1); err != nil {
		return nil, err
	}
	return &Solver{Class: class, Procs: [3]int{t.Size(), 1, 1}, transport: t, mem: mempool.New(true)}, nil
}

// Ranks returns the world size.
func (s *Solver) Ranks() int { return s.Procs[0] * s.Procs[1] * s.Procs[2] }

// Variant reports the plane-kernel backend the ranks run at the finest
// level ("scalar", "buffered" or "simd"): core.PlaneVariant of a finest
// box's rows. Observation only — every backend computes the same bits.
func (s *Solver) Variant() string { return core.PlaneVariant(s.Class.N / s.Procs[2]) }

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
// the final NPB norms. Only valid for solvers built with New/New3D.
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
	if s.Overlap && (s.Procs[1] > 1 || s.Procs[2] > 1) {
		panic(fmt.Sprintf("mgmpi: overlap requires a 1-D slab decomposition, got procs (%d,%d,%d)",
			s.Procs[0], s.Procs[1], s.Procs[2]))
	}
	var obs *commObserver
	if s.Trace != nil {
		// Interpose the trace observer between the solver and the
		// transport: every Send/Recv below emits a pairable event. The
		// untraced path keeps the bare transport — no wrapper, no cost.
		obs = newCommObserver(c.Transport(), s.Trace)
		c = mpi.NewComm(obs)
	}
	st := newRankState(c, s.Class, s.Procs)
	st.mem = s.mem
	st.overlap = s.Overlap
	if s.Threads > 1 {
		st.pool = sched.NewPool(s.Threads)
		defer st.pool.Close()
	}
	st.obs = obs
	st.trace = s.Trace
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

// rankState is one rank's view of the problem: its sub-box hierarchy for
// the distributed levels and the whole grids of the coarse levels every
// rank solves.
type rankState struct {
	c     *mpi.Comm
	class nas.Class
	lt    int    // finest level
	lcd   int    // coarsest distributed level; 1..lcd−1 are whole on every rank
	procs [3]int // processor grid extents
	coord [3]int // this rank's grid coordinates
	a, cs stencil.Coeffs

	// u, r hold local sub-boxes of levels lcd−1..lt; at lcd−1 they are the
	// rank's share of the whole grid — the restriction the allgather ships
	// (r) and the window of the coarse solution it prolongs from (u). On a
	// slab u's boxes store two halo planes either side along axis 0 (plane
	// q at index q+1, uShape), the depth core's legs read.
	u, r map[int]*array.Array
	v    *array.Array // finest right-hand-side sub-box
	z    *array.Array // 3-D grids: the finest level's interpolated correction

	// slab: the processor grid is (R, 1, 1), and the distributed levels run
	// core's pipelined legs. another: a V-cycle follows the residual
	// evalResid computes, so its projection's halo is exchanged.
	slab, another bool

	uFull, rFull map[int]*array.Array // levels 1..lcd−1, whole grids

	// serialComm redirects comm3 to serial plane copies while the rank
	// works on whole grids.
	serialComm bool

	// overlap selects the overlapped exchange's span order
	// (Solver.Overlap); pool, when non-nil, fans each kernel's plane loop
	// over multiple workers (Solver.Threads). Both nil/false by default.
	overlap bool
	pool    *sched.Pool
	mem     *mempool.Pool // line buffers of the plane kernels (Solver.mem)

	scratch []float64 // a packed face, between pack and the Send that copies it

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
	st.trace.Emit(metrics.Event{Ev: "span", Kernel: kernel, Level: level,
		Nanos: int64(time.Since(start)), Rank: st.c.Rank()})
}

func newRankState(c *mpi.Comm, class nas.Class, procs [3]int) *rankState {
	lt := class.LT()
	// Coarsest distributed level: one above the finest level whose whole
	// grid has at most wl.DefaultSeqThreshold points (2^(3l) ≤ 4096: level
	// 4, 16³), and at least two cells per rank along every distributed
	// axis, so every sub-box starts on an even global index and the
	// restriction/prolongation pairing stays rank-local.
	lcd := (bits.Len(uint(wl.DefaultSeqThreshold))-1)/3 + 1
	for _, r := range procs {
		l := 1
		for r > 1 && (1<<l) < 2*r {
			l++
		}
		lcd = max(lcd, l)
	}
	lcd = min(lcd, lt)
	rank := c.Rank()
	coord := [3]int{
		rank / (procs[1] * procs[2]),
		(rank / procs[2]) % procs[1],
		rank % procs[2],
	}
	st := &rankState{
		c: c, class: class, lt: lt, lcd: lcd, procs: procs, coord: coord,
		a: stencil.A, cs: class.SmootherCoeffs(),
		u: map[int]*array.Array{}, r: map[int]*array.Array{},
		uFull: map[int]*array.Array{}, rFull: map[int]*array.Array{},
		slab: procs[1] == 1 && procs[2] == 1,
	}
	for l := lcd - 1; l <= lt; l++ {
		st.u[l] = array.New(st.uShape(l))
		st.r[l] = array.New(st.boxShape(l))
	}
	st.v = array.New(st.boxShape(lt))
	if !st.slab {
		st.z = array.New(st.boxShape(lt))
	}
	for l := 1; l < lcd; l++ {
		st.uFull[l] = array.New(class.ExtShape(l))
		st.rFull[l] = array.New(class.ExtShape(l))
	}
	lp := st.local(lt, 0)
	st.planes = make([]float64, lp, lp+1) // + the local max, on the wire
	st.planeMax = make([]float64, lp)
	if rank == 0 {
		st.planeTot = make([]float64, 1<<lt)
	}
	return st
}

// local returns the number of interior cells this rank owns along axis a
// at a distributed level.
func (st *rankState) local(level, axis int) int { return (1 << level) / st.procs[axis] }

func (st *rankState) boxShape(level int) shape.Shape {
	return shape.Of(st.local(level, 0)+2, st.local(level, 1)+2, st.local(level, 2)+2)
}

// uShape is the shape of u's box at a level: two more planes on a slab.
func (st *rankState) uShape(level int) shape.Shape {
	shp := st.boxShape(level)
	if st.slab {
		shp[0] += 2
	}
	return shp
}

// neighbour returns the rank of the grid neighbour along axis a (offset
// ±1, periodic).
func (st *rankState) neighbour(axis, delta int) int {
	nc := st.coord
	nc[axis] = (nc[axis] + delta + st.procs[axis]) % st.procs[axis]
	return (nc[0]*st.procs[1]+nc[1])*st.procs[2] + nc[2]
}

// --- sub-box pack/unpack ----------------------------------------------------------

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

// unpackBox writes buf into the box [lo, hi] of d.
func unpackBox(d []float64, n1, n2 int, lo, hi [3]int, buf []float64) {
	width := hi[2] - lo[2] + 1
	copyBox(d, n1, n2, lo, buf, hi[1]-lo[1]+1, width, [3]int{}, [3]int{hi[0] - lo[0], hi[1] - lo[1], width - 1})
}

// copyBox copies the box [lo, hi] of src (extents sn1×sn2 within planes)
// onto the box of the same extents at dstLo of dst (dn1×dn2); src and dst
// may be one grid (the periodic exchange along an undistributed axis) when
// the boxes are disjoint. A box one value wide along axis 2 — the axis-2
// halo step of every comm3 — is a strided loop, not a copy call per value.
func copyBox(dst []float64, dn1, dn2 int, dstLo [3]int, src []float64, sn1, sn2 int, lo, hi [3]int) {
	width := hi[2] - lo[2] + 1
	for i := lo[0]; i <= hi[0]; i++ {
		s := (i*sn1+lo[1])*sn2 + lo[2]
		t := ((dstLo[0]+i-lo[0])*dn1+dstLo[1])*dn2 + dstLo[2]
		if width == 1 {
			for j := lo[1]; j <= hi[1]; j++ {
				dst[t] = src[s]
				s, t = s+sn2, t+dn2
			}
			continue
		}
		for j := lo[1]; j <= hi[1]; j++ {
			copy(dst[t:t+width], src[s:s+width])
			s, t = s+sn2, t+dn2
		}
	}
}

// --- comm3: the distributed periodic boundary update ------------------------------

// comm3 refreshes the halo cells of a local box. It mirrors the serial
// nas.Comm3 exactly: axes are processed contiguous-first (axis 2, then 1,
// then 0); each step covers the full extent of already-processed axes and
// the interior of not-yet-processed ones, so edges and corners propagate
// identically. Undistributed axes copy locally; a distributed axis posts
// both faces to its ring neighbours before receiving either, so the two
// wire latencies overlap. Messages, tags and per-stream order (tagHi, then
// tagLo) are those of send-receive-send-receive, and so is every halo value:
// the second face is read from plane 1, the first receive writes plane 0.
func (st *rankState) comm3(a *array.Array) {
	shp := a.Shape()
	n0, n1, n2 := shp[0], shp[1], shp[2]
	d := a.Data()
	lp := [3]int{n0 - 2, n1 - 2, n2 - 2}

	// Tag the halo messages below with the grid level, recovered from
	// the box extent: a distributed axis owns global/procs cells, so the
	// global extent is lp·procs = 2^level.
	if st.obs != nil && !st.serialComm {
		for x := 0; x < 3; x++ {
			if st.procs[x] > 1 {
				st.setCommLevel(bits.Len(uint(lp[x]*st.procs[x])) - 1)
				break
			}
		}
	}

	// Per-axis data ranges (inclusive): already-processed axes span
	// everything including halos; later axes interior only.
	ranges := func(axis int) (lo, hi [3]int) {
		for x := 0; x < 3; x++ {
			switch {
			case x > axis: // processed before this one (we go 2,1,0)
				lo[x], hi[x] = 0, lp[x]+1
			case x < axis:
				lo[x], hi[x] = 1, lp[x]
			}
		}
		return lo, hi
	}
	setAxis := func(lo, hi [3]int, axis, v int) ([3]int, [3]int) {
		lo[axis], hi[axis] = v, v
		return lo, hi
	}

	for axis := 2; axis >= 0; axis-- {
		lo, hi := ranges(axis)
		if st.procs[axis] == 1 || st.serialComm {
			// Local periodic copies: halo 0 ← interior lp; halo lp+1 ← 1.
			sLo, sHi := setAxis(lo, hi, axis, lp[axis])
			dLo, _ := setAxis(lo, hi, axis, 0)
			copyBox(d, n1, n2, dLo, d, n1, n2, sLo, sHi)
			sLo, sHi = setAxis(lo, hi, axis, 1)
			dLo, _ = setAxis(lo, hi, axis, lp[axis]+1)
			copyBox(d, n1, n2, dLo, d, n1, n2, sLo, sHi)
			continue
		}
		up := st.neighbour(axis, +1)
		down := st.neighbour(axis, -1)
		tagHi := tagHaloBase + 2*axis
		tagLo := tagHaloBase + 2*axis + 1
		// My top interior face goes up and becomes the upper neighbour's
		// low halo; my bottom one goes down.
		sLo, sHi := setAxis(lo, hi, axis, lp[axis])
		st.c.Send(up, tagHi, st.pack(d, n1, n2, sLo, sHi))
		sLo, sHi = setAxis(lo, hi, axis, 1)
		st.c.Send(down, tagLo, st.pack(d, n1, n2, sLo, sHi))
		rLo, rHi := setAxis(lo, hi, axis, 0)
		st.unpack(d, n1, n2, rLo, rHi, st.c.Recv(down, tagHi))
		rLo, rHi = setAxis(lo, hi, axis, lp[axis]+1)
		st.unpack(d, n1, n2, rLo, rHi, st.c.Recv(up, tagLo))
	}
}

// pack returns the box [lo, hi] of d as one slice for a Send to copy into
// its frame: d's own memory where the box is whole axis-0 planes
// (every face of a slab), else the rank's scratch, valid until the next pack.
func (st *rankState) pack(d []float64, n1, n2 int, lo, hi [3]int) []float64 {
	if lo[1] == 0 && hi[1] == n1-1 && lo[2] == 0 && hi[2] == n2-1 {
		return d[lo[0]*n1*n2 : (hi[0]+1)*n1*n2]
	}
	st.scratch = packBox(st.scratch, d, n1, n2, lo, hi)
	return st.scratch
}

// unpack writes a received halo payload into the box [lo, hi] of d and
// gives it back to the transport.
func (st *rankState) unpack(d []float64, n1, n2 int, lo, hi [3]int, payload []float64) {
	unpackBox(d, n1, n2, lo, hi, payload)
	st.c.Release(payload)
}

// --- scatter / allgather ------------------------------------------------------------

// globalBox returns this rank's interior box in extended-global
// coordinates at a level.
func (st *rankState) globalBox(level int) (lo, hi [3]int) { return st.rankBoxOf(level, st.c.Rank()) }

// rankBoxOf returns rank r's interior box at a level (extended-global).
func (st *rankState) rankBoxOf(level, r int) (lo, hi [3]int) {
	coord := [3]int{
		r / (st.procs[1] * st.procs[2]),
		(r / st.procs[2]) % st.procs[1],
		r % st.procs[2],
	}
	for a := 0; a < 3; a++ {
		lp := (1 << level) / st.procs[a]
		lo[a] = coord[a]*lp + 1
		hi[a] = lo[a] + lp - 1
	}
	return lo, hi
}

// allgather assembles the residual of level g = lcd−1 whole on every rank:
// each rank posts the interior of its box r[g] to every other rank, then
// takes theirs in rank order into rFull[g], whose halo the serial comm3
// fills.
func (st *rankState) allgather() {
	g := st.lcd - 1
	st.setCommLevel(g)
	box, full := st.r[g], st.rFull[g]
	bs, m := box.Shape(), full.Shape()
	interiorLo := [3]int{1, 1, 1}
	interiorHi := [3]int{bs[0] - 2, bs[1] - 2, bs[2] - 2}
	me := st.c.Rank()
	mine := st.pack(box.Data(), bs[1], bs[2], interiorLo, interiorHi)
	for dst := 0; dst < st.c.Size(); dst++ {
		if dst != me {
			st.c.Send(dst, tagAllgather, mine)
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
	nas.Comm3(full)
}

// scatterFromRoot distributes rank 0's full grid into the local boxes of
// a distributed level (interior cells; halos are refreshed by comm3). Once
// per solve, so its whole-box buffers are packed fresh and never released.
func (st *rankState) scatterFromRoot(level int, full, box *array.Array) {
	st.setCommLevel(level)
	bs := box.Shape()
	interiorLo := [3]int{1, 1, 1}
	interiorHi := [3]int{bs[0] - 2, bs[1] - 2, bs[2] - 2}
	if st.c.Rank() == 0 {
		m := full.Shape()
		for dst := 1; dst < st.c.Size(); dst++ {
			lo, hi := st.rankBoxOf(level, dst)
			st.c.Send(dst, tagScatter, packBox(nil, full.Data(), m[1], m[2], lo, hi))
		}
		lo, hi := st.globalBox(level)
		copyBox(box.Data(), bs[1], bs[2], interiorLo, full.Data(), m[1], m[2], lo, hi)
		return
	}
	unpackBox(box.Data(), bs[1], bs[2], interiorLo, interiorHi, st.c.Recv(0, tagScatter))
}

// --- kernels: core's plane kernels over the rank's boxes ---------------------------
//
// The three-call operators of the whole-grid levels and of 3-D processor
// grids. Each hands its box to the plane-range entry point of the matching
// fused kernel (core/planes.go) and leaves the plane schedule to
// fusedComm3. The backend follows the row the line buffers see (axis 2),
// not the slab thickness.

// resid computes r = v − A·u over the box interior and refreshes the
// periodic boundary. r may be v.
func (st *rankState) resid(u, v, r *array.Array) {
	shp := u.Shape()
	n1, n2 := shp[1], shp[2]
	ud, vd, rd := u.Data(), v.Data(), r.Data()
	variant := core.PlaneVariant(n2 - 2)
	st.fusedComm3(r, func(p core.PlaneSpan) {
		core.SubRelaxPlanes(st.mem, rd, vd, ud, n1, n2, p, variant, st.a, nil, nil)
	})
}

// psinv computes u = z + S·r over the box interior — with add, u + (z +
// S·r) — and refreshes u's halo. z may be u.
func (st *rankState) psinv(r, z, u *array.Array, add bool) {
	shp := u.Shape()
	n1, n2 := shp[1], shp[2]
	rd, zd, ud := r.Data(), z.Data(), u.Data()
	var wd []float64
	if add {
		wd = ud
	}
	variant := core.PlaneVariant(n2 - 2)
	st.fusedComm3(u, func(p core.PlaneSpan) {
		core.AddRelaxPlanes(st.mem, ud, zd, wd, rd, n1, n2, p, variant, st.cs)
	})
}

// rprj3 restricts the fine box rk to the coarse box rj and refreshes rj's
// halo.
func (st *rankState) rprj3(rk, rj *array.Array) { st.fusedComm3(rj, st.project(rk, rj)) }

// project is the plane loop of the restriction of the fine box rk onto the
// coarse box rj. Box alignment makes the cell mapping local along every
// axis: coarse local (j3,j2,j1) sits under fine local (2j3, 2j2, 2j1).
func (st *rankState) project(rk, rj *array.Array) func(core.PlaneSpan) {
	fs := rk.Shape()
	fd, cd := rk.Data(), rj.Data()
	variant := core.PlaneVariant(rj.Shape()[2] - 2)
	return func(p core.PlaneSpan) {
		core.ProjectCondensePlanes(st.mem, cd, fd, fs[1], fs[2], p, variant, stencil.P)
	}
}

// interp prolongs the coarse box z onto the whole fine box u (coarse local
// cell c under fine local 2c along every axis), u = Q·z. The fine halos
// are interpolated from z's halos like any other cell, so no exchange
// follows.
func (st *rankState) interp(z, u *array.Array) {
	zs := z.Shape()
	zd, ud := z.Data(), u.Data()
	variant := core.PlaneVariant(u.Shape()[2] - 2)
	st.forPlanes(core.PlaneSpan{Lo: 0, Hi: u.Shape()[0] - 1}, func(p core.PlaneSpan) {
		core.InterpolatePlanes(st.mem, ud, nil, zd, zs[1], zs[2], p, true, variant, stencil.Q)
	})
}

// window copies this rank's window of the whole coarse solution uFull[g],
// g = lcd−1 — its coarse cells and one halo cell either side, and on a
// slab one more plane below, which the way up at lcd reads — into its box
// u[g], from which the finer level prolongs.
func (st *rankState) window() {
	g := st.lcd - 1
	win, full := st.u[g], st.uFull[g]
	ws, fs := win.Shape(), full.Shape()
	lo, hi := st.globalBox(g)
	if st.slab {
		// Whole planes, global plane lo−2 … hi+1; the one below plane 0
		// wraps.
		pl := fs[1] * fs[2]
		for q := lo[0] - 2; q <= hi[0]+1; q++ {
			src := q
			if src < 0 {
				src += fs[0] - 2
			}
			i := q - lo[0] + 2
			copy(win.Data()[i*pl:(i+1)*pl], full.Data()[src*pl:])
		}
		return
	}
	for a := range lo {
		lo[a], hi[a] = lo[a]-1, hi[a]+1
	}
	copyBox(win.Data(), ws[1], ws[2], [3]int{}, full.Data(), fs[1], fs[2], lo, hi)
}

// --- driver -----------------------------------------------------------------------

// reset builds the initial state on newRankState's zeroed grids: rank 0
// evaluates zran3 on the full finest grid and scatters the sub-boxes.
func (st *rankState) reset() {
	if st.c.Rank() == 0 {
		full := array.New(st.class.ExtShape(st.lt))
		nas.Zran3(full, st.class.N)
		st.scatterFromRoot(st.lt, full, st.v)
	} else {
		st.scatterFromRoot(st.lt, nil, st.v)
	}
	st.comm3(st.v)
}

// mg3P is one V-cycle. Down the distributed levels each rank restricts its
// box; the last restriction, onto its share of level lcd−1, needs no halo
// exchange, because the allgather that follows makes the whole grid on
// every rank. Every rank then runs the whole-grid levels itself and
// prolongs its own window back up. With a tracer attached every kernel
// call (on a slab, every leg) is also emitted as a per-level span
// (restrict at the target coarse level, prolong at the target fine level,
// matching the single-process tracer's naming), so the comm report can
// attribute compute vs blocked time per level.
func (st *rankState) mg3P() {
	if st.slab {
		st.slabCycle()
		return
	}
	lt, lcd := st.lt, st.lcd
	for l := lt; l > lcd; l-- {
		st.kspan("fine2coarse", l-1, func() { st.rprj3(st.r[l], st.r[l-1]) })
	}
	g := lcd - 1
	st.kspan("fine2coarse", g, func() {
		st.forPlanes(core.PlaneSpan{Lo: 1, Hi: st.r[g].Shape()[0] - 2}, st.project(st.r[lcd], st.r[g]))
	})
	st.allgather()
	st.serialDownUp()
	st.window()
	for l := lcd; l <= lt; l++ {
		// z = Q·zn, r = r − A·z, then z + S·r — or at the finest level
		// u + (z + S·r), z in a box of its own.
		z := st.u[l]
		if l == lt {
			z = st.z
		}
		st.kspan("coarse2fine", l, func() { st.interp(st.u[l-1], z) })
		st.kspan("resid", l, func() { st.resid(z, st.r[l], st.r[l]) })
		st.kspan("smooth", l, func() { st.psinv(st.r[l], z, st.u[l], l == lt) })
	}
}

// slabCycle is mg3P on a slab. The finest r and its projection come from
// the way down of the residual before it (evalResid); the levels below
// project and exchange r, and on the way up each distributed level runs
// core's leg and exchanges the result.
func (st *rankState) slabCycle() {
	lt, lcd, g := st.lt, st.lcd, st.lcd-1
	for l := lt - 1; l >= lcd; l-- {
		st.kspan("fine2coarse", l-1, func() {
			project := st.project(st.r[l], st.r[l-1])
			if l-1 == g {
				st.forPlanes(core.PlaneSpan{Lo: 1, Hi: st.local(g, 0)}, project)
				return
			}
			st.haloed(st.r[l-1], l-1, halo{1, 1}, st.framed(st.r[l-1], project))
		})
	}
	st.allgather()
	st.serialDownUp()
	st.window()
	for l := lcd; l <= lt; l++ {
		st.kspan("correct", l, func() { st.correct(l) })
	}
}

// correct is the way up at distributed level l of a slab: z + S·(r − A·z)
// with z = Q·zn into u[l] — at the finest level u + that, in place — and
// the exchange of u[l]'s halo the next leg reads: two planes below and one
// above for the next level's prolongation, two either side for the finest
// level's residual.
func (st *rankState) correct(l int) {
	u, zn, r := st.u[l], st.u[l-1], st.r[l]
	n, lp := u.Shape()[2], st.local(l, 0)
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

// serialDownUp runs the whole-grid levels of the V-cycle, lcd−1 down to 1
// and back — the same serial code on every rank.
func (st *rankState) serialDownUp() {
	st.serialComm = true
	defer func() { st.serialComm = false }()
	g := st.lcd - 1
	for l := g; l >= 2; l-- {
		st.kspan("fine2coarse", l-1, func() { st.rprj3(st.rFull[l], st.rFull[l-1]) })
	}
	st.uFull[1].Zero()
	st.kspan("smooth", 1, func() { st.psinv(st.rFull[1], st.uFull[1], st.uFull[1], false) })
	for l := 2; l <= g; l++ {
		st.kspan("coarse2fine", l, func() { st.interp(st.uFull[l-1], st.uFull[l]) })
		st.kspan("resid", l, func() { st.resid(st.uFull[l], st.rFull[l], st.rFull[l]) })
		st.kspan("smooth", l, func() { st.psinv(st.rFull[l], st.uFull[l], st.uFull[l], false) })
	}
}

// evalResid computes the finest-level residual r = v − A·u. On a slab it
// is core's way down, which also projects r onto the next level (onto the
// rank's share of level lcd−1 when that is the next) and computes r's halo
// planes; the projection's halo is exchanged when another V-cycle follows.
func (st *rankState) evalResid() {
	lt := st.lt
	if !st.slab {
		st.resid(st.u[lt], st.v, st.r[lt])
		return
	}
	u, v, r, rn := st.u[lt], st.v, st.r[lt], st.r[lt-1]
	n, lp := u.Shape()[2], st.local(lt, 0)
	ud, vd, rd, rnd := u.Data(), v.Data(), r.Data(), rn.Data()
	down := func(p core.PlaneSpan) {
		core.ResidProjectPlanes(st.mem, rd, rnd, vd, ud, n, lp, p, st.a, stencil.P)
	}
	if !st.another || lt-1 < st.lcd {
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
// order, folds the planes ascending, and broadcasts the result. For a
// slab decomposition every global plane has exactly one contributor, so
// the grand total is bit-identical to the serial Norm2u3Planes for every
// rank count; 3-D grids split planes across ranks and are merely
// deterministic. One rank short-circuits all communication.
func (st *rankState) norms() (rnm2, rnmu float64) {
	r := st.r[st.lt]
	shp := r.Shape()
	d := r.Data()
	planes, planeMax := st.planes, st.planeMax // one per plane owned along axis 0
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
		g0 := rank / (st.procs[1] * st.procs[2]) * st.local(st.lt, 0)
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
