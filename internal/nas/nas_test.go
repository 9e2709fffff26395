package nas

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/array"
	"repro/internal/shape"
	"repro/internal/stencil"
)

func TestClassTable(t *testing.T) {
	cases := []struct {
		c    Class
		n    int
		iter int
		lt   int
	}{
		{ClassS, 32, 4, 5},
		{ClassW, 64, 40, 6},
		{ClassA, 256, 4, 8},
		{ClassB, 256, 20, 8},
		{ClassC, 512, 20, 9},
	}
	for _, tc := range cases {
		if tc.c.N != tc.n || tc.c.Iter != tc.iter || tc.c.LT() != tc.lt {
			t.Errorf("class %c: N/Iter/LT = %d/%d/%d, want %d/%d/%d",
				tc.c.Name, tc.c.N, tc.c.Iter, tc.c.LT(), tc.n, tc.iter, tc.lt)
		}
	}
}

func TestClassByName(t *testing.T) {
	c, err := ClassByName("A")
	if err != nil || c.Name != 'A' {
		t.Fatalf("ClassByName(A) = %v, %v", c, err)
	}
	for _, bad := range []string{"", "X", "AA", "a"} {
		if _, err := ClassByName(bad); err == nil {
			t.Errorf("ClassByName(%q) did not fail", bad)
		}
	}
}

func TestExtShape(t *testing.T) {
	if !ClassS.ExtShape(5).Equal(shape.Of(34, 34, 34)) {
		t.Errorf("ExtShape(5) = %v", ClassS.ExtShape(5))
	}
	if !ClassS.ExtShape(1).Equal(shape.Of(4, 4, 4)) {
		t.Errorf("ExtShape(1) = %v", ClassS.ExtShape(1))
	}
}

func TestSmootherCoeffs(t *testing.T) {
	for _, c := range []Class{ClassS, ClassW, ClassA} {
		if c.SmootherCoeffs() != stencil.SClassSWA {
			t.Errorf("class %c: wrong smoother", c.Name)
		}
	}
	for _, c := range []Class{ClassB, ClassC} {
		if c.SmootherCoeffs() != stencil.SClassBC {
			t.Errorf("class %c: wrong smoother", c.Name)
		}
	}
}

func TestVerify(t *testing.T) {
	v, official, ok := ClassS.VerifyValue()
	if !ok || !official || v != 0.5307707005734e-4 {
		t.Fatalf("ClassS.VerifyValue = %v/%v/%v", v, official, ok)
	}
	if verified, ok := ClassS.Verify(v); !ok || !verified {
		t.Fatal("exact value did not verify")
	}
	if verified, _ := ClassS.Verify(v + 2e-8); verified {
		t.Fatal("out-of-tolerance value verified")
	}
	if verified, ok := ClassS.Verify(v + 0.9e-8); !ok || !verified {
		t.Fatal("in-tolerance value did not verify")
	}
}

func TestClassString(t *testing.T) {
	if ClassA.String() != "A (256³, 4 iterations)" {
		t.Errorf("String = %q", ClassA.String())
	}
}

func TestZran3ChargeStructure(t *testing.T) {
	n := 32
	v := array.New(shape.Of(n+2, n+2, n+2))
	Zran3(v, n)
	var plus, minus, other int
	for i3 := 1; i3 <= n; i3++ {
		for i2 := 1; i2 <= n; i2++ {
			for i1 := 1; i1 <= n; i1++ {
				switch v.At3(i3, i2, i1) {
				case 1:
					plus++
				case -1:
					minus++
				case 0:
				default:
					other++
				}
			}
		}
	}
	if plus != 10 || minus != 10 || other != 0 {
		t.Fatalf("charges: +%d −%d other %d, want +10 −10 0", plus, minus, other)
	}
}

func TestZran3Deterministic(t *testing.T) {
	n := 16
	a := array.New(shape.Of(n+2, n+2, n+2))
	b := array.New(shape.Of(n+2, n+2, n+2))
	Zran3(a, n)
	Zran3(b, n)
	if !a.Equal(b) {
		t.Fatal("Zran3 is not deterministic")
	}
}

func TestZran3BorderIsPeriodic(t *testing.T) {
	n := 8
	v := array.New(shape.Of(n+2, n+2, n+2))
	Zran3(v, n)
	for i := 0; i < n+2; i++ {
		for j := 0; j < n+2; j++ {
			if v.At3(i, j, 0) != v.At3(i, j, n) || v.At3(i, j, n+1) != v.At3(i, j, 1) {
				// Axis-2 exchange only covers interior (i,j) like comm3;
				// skip the outer frame.
				if i >= 1 && i <= n && j >= 1 && j <= n {
					t.Fatalf("border not periodic at (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestZran3ShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Zran3 with wrong shape did not panic")
		}
	}()
	Zran3(array.New(shape.Of(10, 10, 10)), 16)
}

func TestComm3(t *testing.T) {
	m := 6
	u := array.New(shape.Of(m, m, m))
	// Distinct interior values.
	for i := 1; i < m-1; i++ {
		for j := 1; j < m-1; j++ {
			for k := 1; k < m-1; k++ {
				u.Set3(i, j, k, float64(i*100+j*10+k))
			}
		}
	}
	Comm3(u)
	// Axis 2: u[i][j][0] == u[i][j][m-2], u[i][j][m-1] == u[i][j][1] for interior i,j.
	for i := 1; i < m-1; i++ {
		for j := 1; j < m-1; j++ {
			if u.At3(i, j, 0) != u.At3(i, j, m-2) || u.At3(i, j, m-1) != u.At3(i, j, 1) {
				t.Fatalf("axis-2 exchange wrong at (%d,%d)", i, j)
			}
		}
	}
	// Axis 1 for interior i, all k.
	for i := 1; i < m-1; i++ {
		for k := 0; k < m; k++ {
			if u.At3(i, 0, k) != u.At3(i, m-2, k) || u.At3(i, m-1, k) != u.At3(i, 1, k) {
				t.Fatalf("axis-1 exchange wrong at (%d,%d)", i, k)
			}
		}
	}
	// Axis 0 full planes.
	for j := 0; j < m; j++ {
		for k := 0; k < m; k++ {
			if u.At3(0, j, k) != u.At3(m-2, j, k) || u.At3(m-1, j, k) != u.At3(1, j, k) {
				t.Fatalf("axis-0 exchange wrong at (%d,%d)", j, k)
			}
		}
	}
}

// Comm3 is idempotent: applying it twice changes nothing.
func TestComm3Idempotent(t *testing.T) {
	m := 8
	u := array.New(shape.Of(m, m, m))
	for i := range u.Data() {
		u.Data()[i] = math.Sin(float64(i))
	}
	Comm3(u)
	once := u.Clone()
	Comm3(u)
	if !u.Equal(once) {
		t.Fatal("Comm3 is not idempotent")
	}
}

// Property: after Comm3, a relaxation that reads borders equals a
// relaxation on the torus (reading with modular wrap-around of the
// interior) — the paper's justification for the extended-grid technique.
func TestComm3RealizesPeriodicityQuick(t *testing.T) {
	f := func(seed uint8) bool {
		n := 4
		m := n + 2
		u := array.New(shape.Of(m, m, m))
		for i3 := 1; i3 <= n; i3++ {
			for i2 := 1; i2 <= n; i2++ {
				for i1 := 1; i1 <= n; i1++ {
					u.Set3(i3, i2, i1, math.Sin(float64(seed)+float64(i3*16+i2*4+i1)))
				}
			}
		}
		Comm3(u)
		// Pick the inner point (1,1,1) whose face neighbours include
		// borders; check each border neighbour equals the wrapped
		// interior value.
		wrap := func(i int) int { return (i-1+n)%n + 1 }
		for _, d := range [][3]int{{-1, 0, 0}, {0, -1, 0}, {0, 0, -1}} {
			bi, bj, bk := 1+d[0], 1+d[1], 1+d[2]
			wi, wj, wk := wrap(bi), wrap(bj), wrap(bk)
			if u.At3(bi, bj, bk) != u.At3(wi, wj, wk) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestNorm2u3(t *testing.T) {
	n := 4
	r := array.New(shape.Of(n+2, n+2, n+2))
	// Two known interior values; borders must be ignored.
	r.Set3(1, 1, 1, 3)
	r.Set3(2, 3, 4, -4)
	r.Set3(0, 0, 0, 1000) // border noise
	rnm2, rnmu := Norm2u3(r, n)
	wantRnm2 := math.Sqrt((9.0 + 16.0) / 64.0)
	if math.Abs(rnm2-wantRnm2) > 1e-15 {
		t.Fatalf("rnm2 = %v, want %v", rnm2, wantRnm2)
	}
	if rnmu != 4 {
		t.Fatalf("rnmu = %v, want 4", rnmu)
	}
}

// Norm2u3Planes computes the same norms up to reassociation of the sum of
// squares: rnmu must be bitwise identical, rnm2 equal within a few ulps,
// and the blocked association must match an explicit row→plane→total fold
// bit for bit (that fold is the contract the parallel fused resid+norm
// kernel reproduces).
func TestNorm2u3Planes(t *testing.T) {
	n := 8
	r := array.New(shape.Of(n+2, n+2, n+2))
	for i := range r.Data() {
		r.Data()[i] = math.Sin(float64(i) * 0.7)
	}
	flat2, flatU := Norm2u3(r, n)
	got2, gotU := Norm2u3Planes(r, n)
	if gotU != flatU {
		t.Fatalf("rnmu = %v, flat %v (must be bitwise equal)", gotU, flatU)
	}
	if math.Abs(got2-flat2) > 1e-12*flat2 {
		t.Fatalf("rnm2 = %v, flat %v (beyond reassociation tolerance)", got2, flat2)
	}
	var sum float64
	m := n + 2
	for i3 := 1; i3 < m-1; i3++ {
		var plane float64
		for i2 := 1; i2 < m-1; i2++ {
			var row float64
			for i1 := 1; i1 < m-1; i1++ {
				v := r.Data()[(i3*m+i2)*m+i1]
				row += v * v
			}
			plane += row
		}
		sum += plane
	}
	want := math.Sqrt(sum / (float64(n) * float64(n) * float64(n)))
	if got2 != want {
		t.Fatalf("rnm2 = %.17e, blocked fold %.17e (must be bitwise equal)", got2, want)
	}
}

func TestNorm2u3ZeroGrid(t *testing.T) {
	r := array.New(shape.Of(6, 6, 6))
	rnm2, rnmu := Norm2u3(r, 4)
	if rnm2 != 0 || rnmu != 0 {
		t.Fatalf("zero grid norms = %v/%v", rnm2, rnmu)
	}
}

// The initial residual of the benchmark: with u = 0, r = v - A·0 = v, so
// norm2u3(v) for class S must equal the documented initial norm structure:
// sqrt(20/n³) since v holds exactly twenty ±1 charges.
func TestInitialNormOfV(t *testing.T) {
	n := 32
	v := array.New(shape.Of(n+2, n+2, n+2))
	Zran3(v, n)
	rnm2, rnmu := Norm2u3(v, n)
	want := math.Sqrt(20.0 / float64(n*n*n))
	if math.Abs(rnm2-want) > 1e-15 {
		t.Fatalf("||v|| = %v, want %v", rnm2, want)
	}
	if rnmu != 1 {
		t.Fatalf("max|v| = %v, want 1", rnmu)
	}
}

// A candidate list made with room for one insert past the limit is never
// reallocated however many values go in: the insert drops the head in
// place instead of sliding the list and shrinking its capacity.
func TestInsertPastLimitAllocatesNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		large := make([]Extreme, 0, Zran3Charges+1)
		small := make([]Extreme, 0, Zran3Charges+1)
		for i := 0; i < 1000; i++ {
			z := math.Mod(float64(i)*0.6180339887, 1)
			large = insertAscending(large, Extreme{z, i}, Zran3Charges)
			small = insertDescending(small, Extreme{z, i}, Zran3Charges)
		}
		if len(large) != Zran3Charges || len(small) != Zran3Charges {
			t.Fatalf("lists of %d and %d, want %d each", len(large), len(small), Zran3Charges)
		}
	})
	if allocs > 2 {
		t.Errorf("1000 inserts into each list made %.0f allocations, want at most the 2 makes", allocs)
	}
}

func BenchmarkZran3ClassS(b *testing.B) {
	n := 32
	v := array.New(shape.Of(n+2, n+2, n+2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Zran3(v, n)
	}
}

func BenchmarkComm3(b *testing.B) {
	u := array.New(shape.Of(66, 66, 66))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Comm3(u)
	}
}

func TestFlopCount(t *testing.T) {
	// NPB convention: 58 operations per fine-grid point per iteration.
	want := 58.0 * 32 * 32 * 32 * 4
	if got := ClassS.FlopCount(); got != want {
		t.Fatalf("FlopCount(S) = %v, want %v", got, want)
	}
	if ClassA.FlopCount() <= ClassS.FlopCount() {
		t.Fatal("class A flop count not larger than S")
	}
}
