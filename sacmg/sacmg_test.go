package sacmg_test

import (
	"math"
	"testing"

	"repro/sacmg"
)

// The package-level quick start from the doc comment must work verbatim.
func TestQuickStart(t *testing.T) {
	env := sacmg.NewEnv()
	b := sacmg.NewBenchmark(sacmg.ClassS, env)
	rnm2, _ := b.Run()
	ok, known := sacmg.ClassS.Verify(rnm2)
	if !known || !ok {
		t.Fatalf("quick start did not verify: rnm2 = %v", rnm2)
	}
}

func TestArrayConstruction(t *testing.T) {
	a := sacmg.NewArray(sacmg.ShapeOf(2, 3))
	if a.Dim() != 2 || a.Size() != 6 {
		t.Fatal("NewArray wrong")
	}
	b := sacmg.FromSlice(sacmg.ShapeOf(2), []float64{1, 2})
	if b.At(sacmg.Index{1}) != 2 {
		t.Fatal("FromSlice wrong")
	}
	if sacmg.Scalar(5).Dim() != 0 {
		t.Fatal("Scalar wrong")
	}
}

func TestWithLoopViaFacade(t *testing.T) {
	env := sacmg.NewEnv()
	shp := sacmg.ShapeOf(4, 4)
	a := env.Genarray(shp, sacmg.Full(shp), func(iv sacmg.Index) float64 {
		return float64(iv[0]*4 + iv[1])
	})
	if got := sacmg.Sum(env, a); got != 120 {
		t.Fatalf("Sum = %v, want 120", got)
	}
	inner := env.Genarray(shp, sacmg.Inner(shp), func(sacmg.Index) float64 { return 1 })
	if got := sacmg.Sum(env, inner); got != 4 {
		t.Fatalf("inner Sum = %v, want 4", got)
	}
}

func TestArrayLibraryViaFacade(t *testing.T) {
	env := sacmg.NewEnv()
	a := sacmg.GenarrayVal(env, sacmg.ShapeOf(4, 4, 4), 2)
	if sacmg.MaxAbs(env, a) != 2 {
		t.Fatal("GenarrayVal/MaxAbs wrong")
	}
	c := sacmg.Condense(env, 2, a)
	if !c.Shape().Equal(sacmg.ShapeOf(2, 2, 2)) {
		t.Fatal("Condense shape wrong")
	}
	s := sacmg.Scatter(env, 2, c)
	if sacmg.Sum(env, s) != 16 {
		t.Fatalf("Scatter sum = %v", sacmg.Sum(env, s))
	}
	e := sacmg.Embed(env, sacmg.ShapeOf(3, 3, 3), []int{0, 0, 0}, c)
	tk := sacmg.Take(env, c.Shape(), e)
	if !tk.Equal(c) {
		t.Fatal("take∘embed identity failed via facade")
	}
	d := sacmg.Drop(env, []int{1, 0, 0}, a)
	if !d.Shape().Equal(sacmg.ShapeOf(3, 4, 4)) {
		t.Fatal("Drop shape wrong")
	}
	sum := sacmg.Add(env, a, a)
	if sacmg.MaxAbs(env, sum) != 4 {
		t.Fatal("Add wrong")
	}
	if sacmg.MaxAbs(env, sacmg.Sub(env, a, a)) != 0 {
		t.Fatal("Sub wrong")
	}
	if sacmg.MaxAbs(env, sacmg.Mul(env, a, a)) != 4 {
		t.Fatal("Mul wrong")
	}
	if sacmg.MaxAbs(env, sacmg.Scale(env, 3, a)) != 6 {
		t.Fatal("Scale wrong")
	}
	if math.Abs(sacmg.L2Norm(env, a)-2) > 1e-15 {
		t.Fatal("L2Norm wrong")
	}
	r := sacmg.Rotate(env, 0, 1, sacmg.FromSlice(sacmg.ShapeOf(3), []float64{1, 2, 3}))
	if r.At(sacmg.Index{0}) != 3 {
		t.Fatal("Rotate wrong")
	}
	sh := sacmg.Shift(env, 0, 1, 9, sacmg.FromSlice(sacmg.ShapeOf(3), []float64{1, 2, 3}))
	if sh.At(sacmg.Index{0}) != 9 {
		t.Fatal("Shift wrong")
	}
}

func TestStencilViaFacade(t *testing.T) {
	env := sacmg.NewEnv()
	a := sacmg.GenarrayVal(env, sacmg.ShapeOf(4, 4, 4), 1)
	out := sacmg.Relax(env, a, sacmg.OperatorA)
	// A annihilates constants.
	if sacmg.MaxAbs(env, out) > 1e-13 {
		t.Fatal("OperatorA on constants not ~0")
	}
	// The coefficient sets are the NPB values.
	if sacmg.OperatorA[0] != -8.0/3.0 || sacmg.ProjectP[0] != 0.5 || sacmg.InterpQ[0] != 1.0 {
		t.Fatal("coefficient sets wrong")
	}
	if sacmg.SmootherSWA[3] != 0 || sacmg.SmootherBC[0] != -3.0/17.0 {
		t.Fatal("smoother sets wrong")
	}
}

func TestSolverViaFacade(t *testing.T) {
	env := sacmg.NewEnv()
	s := sacmg.NewSolver(env)
	v := sacmg.NewArray(sacmg.ShapeOf(10, 10, 10))
	u := s.MGrid(v, 2)
	if sacmg.MaxAbs(env, u) != 0 {
		t.Fatal("MGrid(0) != 0")
	}
}

func TestClassesViaFacade(t *testing.T) {
	for _, c := range []struct {
		class   sacmg.Class
		n, iter int
		name    byte
	}{
		{sacmg.ClassS, 32, 4, 'S'},
		{sacmg.ClassW, 64, 40, 'W'},
		{sacmg.ClassA, 256, 4, 'A'},
		{sacmg.ClassB, 256, 20, 'B'},
		{sacmg.ClassC, 512, 20, 'C'},
	} {
		if c.class.N != c.n || c.class.Iter != c.iter || c.class.Name != c.name {
			t.Errorf("class %c = %+v, want N %d, %d iterations", c.name, c.class, c.n, c.iter)
		}
		if _, known := c.class.Verify(0); !known {
			t.Errorf("class %c has no reference value", c.name)
		}
	}
}

func TestParallelEnvViaFacade(t *testing.T) {
	env := sacmg.NewParallelEnv(3)
	defer env.Close()
	if env.Workers() != 3 {
		t.Fatalf("Workers = %d", env.Workers())
	}
	b := sacmg.NewBenchmark(sacmg.ClassS, env)
	rnm2, _ := b.Run()
	if ok, known := sacmg.ClassS.Verify(rnm2); !known || !ok {
		t.Fatal("parallel benchmark did not verify")
	}
}

func TestMachineViaFacade(t *testing.T) {
	m := sacmg.Enterprise4000()
	if m.MaxProcs != 10 {
		t.Fatalf("MaxProcs = %d", m.MaxProcs)
	}
}

func TestOptLevelConstants(t *testing.T) {
	env := sacmg.NewEnv()
	if env.Opt != sacmg.O3 {
		t.Fatal("default env not O3")
	}
	env.Opt = sacmg.O0
	b := sacmg.NewBenchmark(sacmg.ClassS, env)
	rnm2, _ := b.Run()
	if ok, _ := sacmg.ClassS.Verify(rnm2); !ok {
		t.Fatal("O0 benchmark did not verify")
	}
	_ = []sacmg.OptLevel{sacmg.O0, sacmg.O1, sacmg.O2, sacmg.O3}
}

func TestPeriodicViaFacade(t *testing.T) {
	env := sacmg.NewEnv()
	b := sacmg.NewPeriodicBenchmark(sacmg.ClassS, env)
	rnm2, _ := b.Run()
	if ok, known := sacmg.ClassS.Verify(rnm2); !known || !ok {
		t.Fatalf("periodic benchmark did not verify: %v", rnm2)
	}
	s := sacmg.NewPeriodicSolver(env)
	u := s.MGrid(sacmg.NewArray(sacmg.ShapeOf(8, 8, 8)), 1)
	if sacmg.MaxAbs(env, u) != 0 {
		t.Fatal("periodic MGrid(0) != 0")
	}
}

func TestMPIViaFacade(t *testing.T) {
	s := sacmg.NewMPISolver(sacmg.ClassS, 4)
	rnm2, _ := s.Run()
	if ok, known := sacmg.ClassS.Verify(rnm2); !known || !ok {
		t.Fatalf("MPI solver did not verify: %v", rnm2)
	}
	var st sacmg.CommStats = s.Stats()
	if st.Messages == 0 {
		t.Fatal("no communication recorded")
	}
}

func TestExtendedLibraryViaFacade(t *testing.T) {
	env := sacmg.NewEnv()
	a := sacmg.FromSlice(sacmg.ShapeOf(4), []float64{1, -2, 3, -4})
	zero := sacmg.NewArray(sacmg.ShapeOf(4))
	pos := sacmg.Greater(env, a, zero)
	if sacmg.Sum(env, pos) != 2 {
		t.Fatal("Greater wrong")
	}
	if sacmg.Sum(env, sacmg.Eq(env, a, a)) != 4 {
		t.Fatal("Eq wrong")
	}
	w := sacmg.Where(env, pos, a, sacmg.Scale(env, -1, a))
	if !w.Equal(sacmg.FromSlice(sacmg.ShapeOf(4), []float64{1, 2, 3, 4})) {
		t.Fatalf("Where/Greater/Scale composition wrong: %v", w)
	}
}
