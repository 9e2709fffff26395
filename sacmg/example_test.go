package sacmg_test

import (
	"fmt"

	"repro/sacmg"
)

// The complete NAS MG benchmark, verified against the official reference.
func Example() {
	env := sacmg.NewEnv()
	b := sacmg.NewBenchmark(sacmg.ClassS, env)
	rnm2, _ := b.Run()
	ok, _ := sacmg.ClassS.Verify(rnm2)
	fmt.Println("verified:", ok)
	// Output: verified: true
}

// WITH-loops are the single construct everything is built from: a
// generator selects an index set, an operation maps it.
func ExampleEnv_Genarray() {
	env := sacmg.NewEnv()
	shp := sacmg.ShapeOf(3, 3)
	a := env.Genarray(shp, sacmg.Full(shp), func(iv sacmg.Index) float64 {
		return float64(iv[0]*3 + iv[1])
	})
	fmt.Println(sacmg.Sum(env, a))
	// Output: 36
}

// Strided generators express grid selections — here every second element.
func ExampleGen() {
	env := sacmg.NewEnv()
	shp := sacmg.ShapeOf(6)
	g := sacmg.Gen([]int{0}, []int{6}).WithStep([]int{2})
	a := env.Genarray(shp, g, func(sacmg.Index) float64 { return 1 })
	fmt.Println(a.Data())
	// Output: [1 0 1 0 1 0]
}

// The Fig. 10 library functions compose: condense∘scatter is the identity.
func ExampleCondense() {
	env := sacmg.NewEnv()
	a := sacmg.FromSlice(sacmg.ShapeOf(2, 2), []float64{1, 2, 3, 4})
	round := sacmg.Condense(env, 2, sacmg.Scatter(env, 2, a))
	fmt.Println(round.Equal(a))
	// Output: true
}

// The rank-generic solver runs unchanged on any dimension; here a
// trivially solvable 3-D system.
func ExampleSolver_MGrid() {
	env := sacmg.NewEnv()
	s := sacmg.NewSolver(env)
	v := sacmg.NewArray(sacmg.ShapeOf(10, 10, 10)) // zero right-hand side
	u := s.MGrid(v, 2)
	fmt.Println(sacmg.MaxAbs(env, u))
	// Output: 0
}

// The distributed solver reports its communication structure.
func ExampleMPISolver() {
	s := sacmg.NewMPISolver(sacmg.ClassS, 2)
	rnm2, _ := s.Run()
	ok, _ := sacmg.ClassS.Verify(rnm2)
	fmt.Println("verified:", ok, "— messages >", s.Stats().Messages > 0)
	// Output: verified: true — messages > true
}

// Scalar builds a rank-0 array: an empty shape and one element.
func ExampleScalar() {
	s := sacmg.Scalar(2.5)
	fmt.Println(s.Shape().Rank(), s.Data())
	// Output: 0 [2.5]
}

// Drop removes leading elements along each axis (paper Fig. 10).
func ExampleDrop() {
	env := sacmg.NewEnv()
	a := sacmg.FromSlice(sacmg.ShapeOf(5), []float64{0, 1, 2, 3, 4})
	fmt.Println(sacmg.Drop(env, []int{2}, a).Data())
	// Output: [2 3 4]
}

func ExampleScale() {
	env := sacmg.NewEnv()
	a := sacmg.FromSlice(sacmg.ShapeOf(3), []float64{1, 2, 3})
	fmt.Println(sacmg.Scale(env, 2, a).Data())
	// Output: [2 4 6]
}

// L2Norm is the root mean square the NPB benchmark reports as rnm2.
func ExampleL2Norm() {
	env := sacmg.NewEnv()
	a := sacmg.FromSlice(sacmg.ShapeOf(2, 2), []float64{1, -1, 1, -1})
	fmt.Println(sacmg.L2Norm(env, a))
	// Output: 1
}

// Shift moves the elements along an axis and fills the vacated end.
func ExampleShift() {
	env := sacmg.NewEnv()
	a := sacmg.FromSlice(sacmg.ShapeOf(4), []float64{1, 2, 3, 4})
	fmt.Println(sacmg.Shift(env, 0, 1, 9, a).Data())
	// Output: [9 1 2 3]
}

// The discrete Poisson operator annihilates constants on the inner
// elements.
func ExampleRelax() {
	env := sacmg.NewEnv()
	a := sacmg.GenarrayVal(env, sacmg.ShapeOf(4, 4, 4), 1)
	out := sacmg.Relax(env, a, sacmg.OperatorA)
	fmt.Println(sacmg.MaxAbs(env, out) < 1e-13)
	// Output: true
}

// A parallel environment computes the same bits as the sequential one.
func ExampleNewParallelEnv() {
	env := sacmg.NewParallelEnv(2)
	defer env.Close()
	rnm2, _ := sacmg.NewBenchmark(sacmg.ClassS, env).Run()
	seq, _ := sacmg.NewBenchmark(sacmg.ClassS, sacmg.NewEnv()).Run()
	fmt.Println(env.Workers(), rnm2 == seq)
	// Output: 2 true
}

// The border-free solver of the paper's future work runs on compact
// grids with wrap-around stencils.
func ExampleNewPeriodicSolver() {
	env := sacmg.NewEnv()
	s := sacmg.NewPeriodicSolver(env)
	u := s.MGrid(sacmg.NewArray(sacmg.ShapeOf(8, 8, 8)), 1) // zero right-hand side
	fmt.Println(sacmg.MaxAbs(env, u))
	// Output: 0
}

func ExampleNewPeriodicBenchmark() {
	b := sacmg.NewPeriodicBenchmark(sacmg.ClassS, sacmg.NewEnv())
	rnm2, _ := b.Run()
	ok, _ := sacmg.ClassS.Verify(rnm2)
	fmt.Println("verified:", ok)
	// Output: verified: true
}

// The NPB MPI reference's decomposition: a 2 × 2 × 1 processor grid.
func ExampleNewMPISolver3D() {
	s := sacmg.NewMPISolver3D(sacmg.ClassS, 2, 2, 1)
	rnm2, _ := s.Run()
	ok, _ := sacmg.ClassS.Verify(rnm2)
	fmt.Println("verified:", ok)
	// Output: verified: true
}

// The simulated machine of the paper's parallel experiments.
func ExampleEnterprise4000() {
	m := sacmg.Enterprise4000()
	fmt.Println(m.MaxProcs)
	// Output: 10
}
