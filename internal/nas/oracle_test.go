package nas

import (
	"math"
	"testing"

	"repro/internal/array"
	"repro/internal/mgtest"
	"repro/internal/shape"
)

func torusGrid(n int, seed float64) *array.Array {
	a := array.New(shape.Of(n, n, n))
	for i := range a.Data() {
		a.Data()[i] = math.Sin(seed + float64(i)*0.61)
	}
	return a
}

func TestOracleStencilConstants(t *testing.T) {
	u := mgtest.NewFilled(shape.Of(4, 4, 4), 3.0)
	c := [4]float64{0.5, 0.25, 0.125, 0.0625}
	total := c[0] + 6*c[1] + 12*c[2] + 8*c[3]
	out := mgtest.OracleStencil(u, c)
	for _, v := range out.Data() {
		if math.Abs(v-3*total) > 1e-13 {
			t.Fatalf("oracle stencil on constants = %v, want %v", v, 3*total)
		}
	}
}

func TestOracleInterpConstants(t *testing.T) {
	z := mgtest.NewFilled(shape.Of(4, 4, 4), 2.5)
	out := mgtest.OracleInterp(z)
	if out.Shape()[0] != 8 {
		t.Fatalf("interp shape %v", out.Shape())
	}
	for _, v := range out.Data() {
		if math.Abs(v-2.5) > 1e-14 {
			t.Fatalf("oracle interp on constants = %v", v)
		}
	}
}

func TestOracleRestrictShape(t *testing.T) {
	r := torusGrid(8, 1)
	c := mgtest.OracleRestrict(r)
	if c.Shape()[0] != 4 {
		t.Fatalf("restrict shape %v", c.Shape())
	}
	// Restriction of a constant grid: the P weights sum to 4.
	k := mgtest.NewFilled(shape.Of(8, 8, 8), 1.0)
	ck := mgtest.OracleRestrict(k)
	for _, v := range ck.Data() {
		if math.Abs(v-4) > 1e-13 {
			t.Fatalf("restrict of ones = %v, want 4", v)
		}
	}
}

func TestOracleVCycleBaseCase(t *testing.T) {
	r := torusGrid(2, 3)
	opS := [4]float64{-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0}
	got := mgtest.OracleVCycle(r, [4]float64{-8.0 / 3.0, 0, 1.0 / 6.0, 1.0 / 12.0}, opS)
	want := mgtest.OracleStencil(r, opS)
	if !got.Equal(want) {
		t.Fatal("oracle base case is not a single smoothing")
	}
}

// The oracle V-cycle reduces the residual of the periodic Poisson system —
// the Fig. 2 algorithm works when written this naively.
func TestOracleVCycleConverges(t *testing.T) {
	n := 16
	opA := [4]float64{-8.0 / 3.0, 0, 1.0 / 6.0, 1.0 / 12.0}
	opS := [4]float64{-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0}
	// Zero-mean right-hand side.
	v := array.New(shape.Of(n, n, n))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				v.Set3(i, j, k, math.Sin(2*math.Pi*float64(i)/float64(n))*
					math.Cos(2*math.Pi*float64(j)/float64(n)))
			}
		}
	}
	norm := func(u *array.Array) float64 {
		au := mgtest.OracleStencil(u, opA)
		s := 0.0
		for i, x := range v.Data() {
			d := x - au.Data()[i]
			s += d * d
		}
		return math.Sqrt(s / float64(n*n*n))
	}
	u := array.New(shape.Of(n, n, n))
	start := norm(u)
	for it := 0; it < 3; it++ {
		au := mgtest.OracleStencil(u, opA)
		r := array.New(v.Shape())
		for i := range r.Data() {
			r.Data()[i] = v.Data()[i] - au.Data()[i]
		}
		z := mgtest.OracleVCycle(r, opA, opS)
		for i := range u.Data() {
			u.Data()[i] += z.Data()[i]
		}
	}
	end := norm(u)
	if !(end < start*0.01) {
		t.Fatalf("oracle V-cycle did not converge: %g -> %g", start, end)
	}
}
