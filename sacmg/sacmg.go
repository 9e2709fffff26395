// Package sacmg is the public API of the SAC-MG reproduction: a functional
// array-programming library in the style of SAC (Single Assignment C)
// together with the NAS benchmark MG built on top of it, reproducing
// Grelck, "Implementing the NAS Benchmark MG in SAC" (IPPS 2002).
//
// The package is a façade over the repository's internal components:
//
//   - n-dimensional arrays as first-class values (Array, Shape, Index);
//   - the WITH-loop construct — generators plus genarray/modarray/fold —
//     executed by an environment (Env) that models the SAC compiler's
//     optimization level, implicit multithreading and reference-counted
//     memory management;
//   - the SAC array library (Condense, Scatter, Embed, Take, element-wise
//     arithmetic, reductions);
//   - 27-point stencil relaxation kernels with the NPB coefficient sets;
//   - the rank-generic multigrid solver of the paper (Solver, with MGrid
//     and VCycle) and the NPB MG benchmark driver (Benchmark);
//   - the benchmark's problem classes and official verification.
//
// # Quick start
//
//	env := sacmg.NewEnv()
//	b := sacmg.NewBenchmark(sacmg.ClassS, env)
//	rnm2, _ := b.Run()
//	ok, _ := sacmg.ClassS.Verify(rnm2)   // true: matches the NPB reference
//
// See the examples directory for complete programs.
package sacmg

import (
	"repro/internal/aplib"
	"repro/internal/array"
	"repro/internal/core"
	"repro/internal/mgmpi"
	"repro/internal/mpi"
	"repro/internal/nas"
	"repro/internal/periodic"
	"repro/internal/shape"
	"repro/internal/smp"
	"repro/internal/stencil"
	wl "repro/internal/withloop"
)

// --- arrays ----------------------------------------------------------------

// Array is a dense n-dimensional float64 array (SAC's double[+]).
type Array = array.Array

// Shape is the extent vector of an array or index space.
type Shape = shape.Shape

// Index is a position in an n-dimensional index space.
type Index = shape.Index

// ShapeOf builds a Shape from extents: ShapeOf(4, 4, 4).
func ShapeOf(extents ...int) Shape { return shape.Of(extents...) }

// NewArray allocates a zeroed array of the given shape.
func NewArray(shp Shape) *Array { return array.New(shp) }

// FromSlice builds an array of the given shape from row-major elements.
func FromSlice(shp Shape, elems []float64) *Array { return array.FromSlice(shp, elems) }

// Scalar builds a rank-0 array.
func Scalar(v float64) *Array { return array.Scalar(v) }

// --- WITH-loop engine --------------------------------------------------------

// Env is the evaluation environment of a SAC program: scheduler, memory
// pool and modeled compiler optimization level.
type Env = wl.Env

// OptLevel models the sac2c optimization level (O0..O3).
type OptLevel = wl.OptLevel

// Optimization levels, cumulative: O0 generic evaluation, O1 dense-box
// fast paths, O2 library fusion and in-place reuse, O3 stencil
// specialization and WITH-loop folding.
const (
	O0 = wl.O0
	O1 = wl.O1
	O2 = wl.O2
	O3 = wl.O3
)

// NewEnv returns the default sequential, fully optimized environment.
func NewEnv() *Env { return wl.Default() }

// NewParallelEnv returns an environment with its own pool of workers —
// SAC's implicit parallelization. Close it with Env.Close.
func NewParallelEnv(workers int) *Env { return wl.Parallel(workers) }

// Generator denotes a WITH-loop index-vector set
// (lower <= iv < upper step s width w).
type Generator = wl.Generator

// Gen builds a dense generator.
func Gen(lower, upper []int) Generator { return wl.Gen(lower, upper) }

// Full covers every index of shp — SAC's ( . <= iv <= . ).
func Full(shp Shape) Generator { return wl.Full(shp) }

// Inner covers every non-boundary index of shp.
func Inner(shp Shape) Generator { return wl.Inner(shp) }

// --- array library ------------------------------------------------------------

// GenarrayVal is genarray(shp, val): a constant array.
func GenarrayVal(e *Env, shp Shape, val float64) *Array { return aplib.GenarrayVal(e, shp, val) }

// Condense is condense(str, a): strided sub-sampling (paper Fig. 10).
func Condense(e *Env, str int, a *Array) *Array { return aplib.Condense(e, str, a) }

// Scatter is scatter(str, a): strided spreading with zero fill.
func Scatter(e *Env, str int, a *Array) *Array { return aplib.Scatter(e, str, a) }

// Embed is embed(shp, pos, a): a placed inside a larger zero array.
func Embed(e *Env, shp Shape, pos []int, a *Array) *Array { return aplib.Embed(e, shp, pos, a) }

// Take is take(shp, a): the leading sub-array of shape shp.
func Take(e *Env, shp Shape, a *Array) *Array { return aplib.Take(e, shp, a) }

// Drop removes the first off[j] elements along each axis.
func Drop(e *Env, off []int, a *Array) *Array { return aplib.Drop(e, off, a) }

// Add, Sub and Mul are the element-wise arithmetic operators.
func Add(e *Env, a, b *Array) *Array { return aplib.Add(e, a, b) }

// Sub returns a - b element-wise.
func Sub(e *Env, a, b *Array) *Array { return aplib.Sub(e, a, b) }

// Mul returns a * b element-wise.
func Mul(e *Env, a, b *Array) *Array { return aplib.Mul(e, a, b) }

// Scale returns k * a element-wise.
func Scale(e *Env, k float64, a *Array) *Array { return aplib.Scale(e, k, a) }

// Sum folds + over all elements.
func Sum(e *Env, a *Array) float64 { return aplib.Sum(e, a) }

// MaxAbs folds max over absolute values.
func MaxAbs(e *Env, a *Array) float64 { return aplib.MaxAbs(e, a) }

// L2Norm is sqrt(mean of squares) over all elements.
func L2Norm(e *Env, a *Array) float64 { return aplib.L2Norm(e, a) }

// Rotate cyclically rotates a along an axis.
func Rotate(e *Env, axis, off int, a *Array) *Array { return aplib.Rotate(e, axis, off, a) }

// Shift shifts a along an axis, filling vacated positions.
func Shift(e *Env, axis, off int, fill float64, a *Array) *Array {
	return aplib.Shift(e, axis, off, fill, a)
}

// --- stencils -------------------------------------------------------------------

// Coeffs holds the four 27-point stencil coefficients
// (centre, face, edge, corner).
type Coeffs = stencil.Coeffs

// The NPB stencil coefficient sets.
var (
	// OperatorA is the discrete Poisson operator.
	OperatorA = stencil.A
	// SmootherSWA is the smoother for classes S, W, A.
	SmootherSWA = stencil.SClassSWA
	// SmootherBC is the smoother for classes B, C.
	SmootherBC = stencil.SClassBC
	// ProjectP is the fine-to-coarse projection operator.
	ProjectP = stencil.P
	// InterpQ is the coarse-to-fine interpolation operator.
	InterpQ = stencil.Q
)

// Relax applies a 27-point stencil to the inner elements of a (rank 1–3).
func Relax(e *Env, a *Array, c Coeffs) *Array { return stencil.Relax(e, a, c) }

// --- multigrid and benchmark ----------------------------------------------------

// Solver is the paper's rank-generic multigrid algorithm (MGrid, VCycle,
// Resid, Smooth, Fine2Coarse, Coarse2Fine).
type Solver = core.Solver

// NewSolver creates a solver in the given environment with the NPB 3-D
// stencils.
func NewSolver(env *Env) *Solver { return core.New(env) }

// Benchmark runs the NPB MG benchmark with the SAC-style solver.
type Benchmark = core.Benchmark

// NewBenchmark creates a benchmark instance for a class.
func NewBenchmark(class Class, env *Env) *Benchmark { return core.NewBenchmark(class, env) }

// --- NPB problem spec ------------------------------------------------------------

// Class is an NPB MG size class with its verification data.
type Class = nas.Class

// The NPB 2.3 size classes.
var (
	ClassS = nas.ClassS // 32³, 4 iterations
	ClassW = nas.ClassW // 64³, 40 iterations
	ClassA = nas.ClassA // 256³, 4 iterations
	ClassB = nas.ClassB // 256³, 20 iterations
	ClassC = nas.ClassC // 512³, 20 iterations
)

// --- SMP simulation ---------------------------------------------------------------

// Machine is the simulated shared-memory multiprocessor used to reproduce
// the paper's parallel experiments (Figs. 12/13); see internal/smp.
type Machine = smp.Machine

// Enterprise4000 is the calibrated model of the paper's 12-processor SUN
// Ultra Enterprise 4000.
func Enterprise4000() Machine { return smp.Enterprise4000() }

// --- extensions (paper §7, future work) ---------------------------------------

// PeriodicSolver is the border-free MG variant of the paper's future-work
// section: compact n³ grids, wrap-around stencils, no artificial boundary
// elements. Bit-identical to Solver on the NPB problem.
type PeriodicSolver = periodic.Solver

// NewPeriodicSolver creates the border-free solver.
func NewPeriodicSolver(env *Env) *PeriodicSolver { return periodic.New(env) }

// PeriodicBenchmark runs the NPB benchmark on compact grids.
type PeriodicBenchmark = periodic.Benchmark

// NewPeriodicBenchmark creates a compact-grid benchmark instance.
func NewPeriodicBenchmark(class Class, env *Env) *PeriodicBenchmark {
	return periodic.NewBenchmark(class, env)
}

// MPISolver is the domain-decomposed MG in the style of the NPB MPI
// reference implementation, running on the simulated message-passing
// world (the paper's requested comparison).
type MPISolver = mgmpi.Solver

// NewMPISolver creates a 1-D slab-decomposed solver with the given number
// of ranks (a power of two; 2·ranks must not exceed the class extent).
func NewMPISolver(class Class, ranks int) *MPISolver { return mgmpi.New(class, ranks) }

// CommStats reports message-passing traffic (messages, bytes).
type CommStats = mpi.Stats

// --- the wider array library -----------------------------------------------------

// Eq and Greater are element-wise relational operators (APL booleans:
// 0.0 / 1.0).
func Eq(e *Env, a, b *Array) *Array      { return aplib.Eq(e, a, b) }
func Greater(e *Env, a, b *Array) *Array { return aplib.Greater(e, a, b) }

// Where selects element-wise: cond ? a : b.
func Where(e *Env, cond, a, b *Array) *Array { return aplib.Where(e, cond, a, b) }
