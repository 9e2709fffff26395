// Package nas defines the NPB MG problem: size classes, the zran3 initial
// charge distribution, the periodic boundary exchange comm3, the norm2u3
// residual norms, and the official verification test. All three MG
// implementations in this repository (internal/core, internal/f77,
// internal/cport) solve exactly this problem, so the package is the single
// source of truth for the benchmark's inputs and its acceptance criterion.
//
// Grids are dense rank-3 arrays in extended form: a problem of interior
// size n³ lives in an (n+2)³ array whose first and last plane along every
// axis are the artificial periodic boundary elements (paper, Fig. 5).
// The array layout is row-major (z, y, x) with x contiguous, matching the
// Fortran original's memory order (Fortran's first index is contiguous).
package nas

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/array"
	"repro/internal/nasrand"
	"repro/internal/shape"
	"repro/internal/stencil"
)

// Class describes one NPB MG size class.
type Class struct {
	// Name is the one-letter class name: S, W, A, B or C.
	Name byte
	// N is the interior grid extent per axis (a power of two).
	N int
	// Iter is the number of timed V-cycle iterations.
	Iter int
	// verify is the reference value for the final residual L2 norm, and
	// published says whether it is the official NPB constant or a value
	// computed by this reproduction (see the note on class W below).
	verify    float64
	published bool
}

// The NPB 2.3 size classes. The paper uses W (64³, 40 iterations) and
// A (256³, 4 iterations).
//
// Verification constants are the official NPB values. (Class W at 64³/40
// iterations is NPB 2.x-specific — NPB 3.x redefined W as 128³/4; the 2.3
// constant 0.2503914064394e-17 is also reproduced independently by this
// repository's Fortran-77 port, which computes 2.5039140643941e-18.)
var (
	ClassS = Class{Name: 'S', N: 32, Iter: 4, verify: 0.5307707005734e-4, published: true}
	ClassW = Class{Name: 'W', N: 64, Iter: 40, verify: 0.2503914064394e-17, published: true}
	ClassA = Class{Name: 'A', N: 256, Iter: 4, verify: 0.2433365309069e-5, published: true}
	ClassB = Class{Name: 'B', N: 256, Iter: 20, verify: 0.1800564401355e-5, published: true}
	ClassC = Class{Name: 'C', N: 512, Iter: 20, verify: 0.5706732285740e-6, published: true}
)

// classes lists all supported classes in size order.
func classes() []Class { return []Class{ClassS, ClassW, ClassA, ClassB, ClassC} }

// ClassByName resolves a one-letter class name.
func ClassByName(name string) (Class, error) {
	for _, c := range classes() {
		if len(name) == 1 && name[0] == c.Name {
			return c, nil
		}
	}
	return Class{}, fmt.Errorf("nas: unknown class %q (want S, W, A, B or C)", name)
}

// String returns e.g. "A (256³, 4 iterations)".
func (c Class) String() string {
	return fmt.Sprintf("%c (%d³, %d iterations)", c.Name, c.N, c.Iter)
}

// FlopCount returns the NPB operation count of the timed benchmark
// section: the benchmark convention is 58 floating-point operations per
// fine-grid point per V-cycle iteration (the Mop/s figures NPB prints are
// this count divided by the measured time).
func (c Class) FlopCount() float64 {
	n := float64(c.N)
	return 58 * n * n * n * float64(c.Iter)
}

// LT returns log2(N) — the number of grid levels (level LT is the finest,
// level 1 the coarsest with 2³ interior points).
func (c Class) LT() int {
	lt := 0
	for n := c.N; n > 1; n >>= 1 {
		lt++
	}
	return lt
}

// ExtShape returns the extended (boundary-augmented) grid shape at the
// given level: (2^level + 2)³.
func (c Class) ExtShape(level int) shape.Shape {
	m := (1 << level) + 2
	return shape.Of(m, m, m)
}

// SmootherCoeffs returns the class-dependent smoother stencil: classes S,
// W and A use one set of coefficients, B and C another (NPB spec).
func (c Class) SmootherCoeffs() stencil.Coeffs {
	if c.Name == 'B' || c.Name == 'C' {
		return stencil.SClassBC
	}
	return stencil.SClassSWA
}

// VerifyValue returns the reference final residual norm and whether it is
// an official NPB constant (as opposed to a value computed and
// cross-checked by this repository). ok is false when no reference exists.
func (c Class) VerifyValue() (value float64, official, ok bool) {
	if c.verify < 0 {
		return 0, false, false
	}
	return c.verify, c.published, true
}

// Epsilon is the NPB verification tolerance: the final residual norm must
// match the reference value to within this absolute difference.
const Epsilon = 1e-8

// Verify applies the official acceptance test to a computed final residual
// norm. When the class has no reference value it returns ok=false with
// verified=false.
func (c Class) Verify(rnm2 float64) (verified, ok bool) {
	v, _, ok := c.VerifyValue()
	if !ok {
		return false, false
	}
	return math.Abs(rnm2-v) <= Epsilon, true
}

// --- zran3: the initial charge distribution -----------------------------------

// Zran3 fills the finest extended grid v with the NPB initial right-hand
// side: zero everywhere except +1 at the positions of the 10 largest and
// −1 at the positions of the 10 smallest values of a pseudorandom field
// drawn from the NAS LCG (seed 314159265). The random field assigns the
// ((i3·ny + i2)·nx + i1)-th stream value to interior point (i3, i2, i1),
// exactly like the Fortran original, so charge positions are bit-exact.
// The periodic border holds each charge's images, as NPB 2.3's comm3
// leaves it.
func Zran3(v *array.Array, n int) {
	Zran3Seeded(v, n, nasrand.DefaultSeed)
}

// Zran3Seeded is Zran3 with an explicit stream seed. The official
// benchmark problem uses nasrand.DefaultSeed (314159265); any other seed
// defines a different — equally deterministic — charge distribution, the
// "scenario" axis a resident solver service exposes to its tenants. The
// NPB verification constants apply only to the default seed.
func Zran3Seeded(v *array.Array, n int, seed uint64) {
	shp := v.Shape()
	if shp.Rank() != 3 || shp[0] != n+2 || shp[1] != n+2 || shp[2] != n+2 {
		panic(fmt.Sprintf("nas: Zran3: grid %v does not match interior size %d", shp, n))
	}
	ex := Zran3Scan(n, seed, 1, n)
	ex.Fill(v, n, [3]int{})
}

// Zran3Charges is how many charges of each sign zran3 places, and so how
// many candidates of each sign a scan keeps.
const Zran3Charges = 10

// Extreme is one candidate charge position: a random field value and its
// flat offset in the extended (n+2)³ grid.
type Extreme struct {
	Val float64
	Pos int
}

// Extremes is what zran3's scan keeps of a run of planes: the ten largest
// field values (Large, ascending) and the ten smallest (Small, descending)
// with their positions — fewer when the planes hold fewer points. Strict
// comparisons keep the first occurrence in scan order on (improbable)
// ties.
type Extremes struct {
	Large, Small []Extreme
}

// Zran3Scan scans interior planes lo … hi (1-based; none when hi < lo) of
// the seed's field on an n³ grid, in the Fortran loops' order (i3 outer,
// i1 inner). The serial zran3 scans planes 1 … n; a distributed one scans
// a share per rank and merges the shares (Merge).
func Zran3Scan(n int, seed uint64, lo, hi int) Extremes {
	m := n + 2 // extended extent

	// Stream layout: plane stride a2 = a^(nx*ny), row stride a1 = a^nx.
	// Each row is scanned for the ten largest and ten smallest values
	// while it is still in the Fill buffer, so the field itself is never
	// written to a grid.
	large := make([]Extreme, 0, Zran3Charges+1) // room for the insert before the drop
	small := make([]Extreme, 0, Zran3Charges+1)
	a1 := nasrand.PowMod(nasrand.Mult, uint64(n))
	a2 := nasrand.PowMod(nasrand.Mult, uint64(n)*uint64(n))
	x0 := nasrand.New(seed)
	x0.NextWith(nasrand.PowMod(a2, uint64(lo-1))) // to plane lo
	row := make([]float64, n)
	for i3 := lo; i3 <= hi; i3++ {
		x1 := nasrand.New(x0.State())
		for i2 := 1; i2 <= n; i2++ {
			xx := nasrand.New(x1.State())
			xx.Fill(row)
			base := (i3*m+i2)*m + 1
			for i, z := range row {
				if len(large) < Zran3Charges || z > large[0].Val {
					large = insertAscending(large, Extreme{z, base + i}, Zran3Charges)
				}
				if len(small) < Zran3Charges || z < small[0].Val {
					small = insertDescending(small, Extreme{z, base + i}, Zran3Charges)
				}
			}
			x1.NextWith(a1)
		}
		x0.NextWith(a2)
	}
	return Extremes{Large: large, Small: small}
}

// Merge folds o, the scan of planes that all follow e's, into e: o's
// candidates enter in scan order under the scan's own comparisons, so
// merging the scans of consecutive plane runs in ascending order yields
// the scan of their union, ties included.
func (e *Extremes) Merge(o Extremes) {
	for _, c := range inScanOrder(o.Large) {
		if len(e.Large) < Zran3Charges || c.Val > e.Large[0].Val {
			e.Large = insertAscending(e.Large, c, Zran3Charges)
		}
	}
	for _, c := range inScanOrder(o.Small) {
		if len(e.Small) < Zran3Charges || c.Val < e.Small[0].Val {
			e.Small = insertDescending(e.Small, c, Zran3Charges)
		}
	}
}

// inScanOrder returns a copy of list in ascending position, the order the
// scan met its values.
func inScanOrder(list []Extreme) []Extreme {
	out := slices.Clone(list)
	slices.SortFunc(out, func(a, b Extreme) int { return a.Pos - b.Pos })
	return out
}

// Fill writes the right-hand side of the charges e onto box, a window of
// the extended (n+2)³ grid whose first cell is the grid's cell lo: zero,
// +1 at every cell that is a large position or one of its periodic
// images, then −1 at the small ones'. On the whole grid (lo = 0) that is
// zran3's v with its border refreshed by comm3; on a rank's box, halos
// included, it is that grid's window.
func (e Extremes) Fill(box *array.Array, n int, lo [3]int) {
	box.Zero()
	shp, d := box.Shape(), box.Data()
	m := n + 2
	for _, set := range []struct {
		list []Extreme
		val  float64
	}{{e.Large, 1}, {e.Small, -1}} {
		for _, c := range set.list {
			p := [3]int{c.Pos / (m * m), c.Pos / m % m, c.Pos % m}
			// The images of interior index p along an axis are the
			// extended indices ≡ p (mod n); those in the box.
			var first [3]int
			for a := range p {
				first[a] = lo[a] + ((p[a]-lo[a])%n+n)%n
			}
			for i := first[0]; i < lo[0]+shp[0]; i += n {
				for j := first[1]; j < lo[1]+shp[1]; j += n {
					for k := first[2]; k < lo[2]+shp[2]; k += n {
						d[((i-lo[0])*shp[1]+j-lo[1])*shp[2]+k-lo[2]] = set.val
					}
				}
			}
		}
	}
}

// insertAscending and insertDescending insert e into a sorted list and drop
// its head past limit. The head goes in place, so a list made with
// capacity limit+1 never reallocates.
func insertAscending(list []Extreme, e Extreme, limit int) []Extreme {
	i := 0
	for i < len(list) && list[i].Val < e.Val {
		i++
	}
	list = append(list, Extreme{})
	copy(list[i+1:], list[i:])
	list[i] = e
	return dropHead(list, limit)
}

func insertDescending(list []Extreme, e Extreme, limit int) []Extreme {
	i := 0
	for i < len(list) && list[i].Val > e.Val {
		i++
	}
	list = append(list, Extreme{})
	copy(list[i+1:], list[i:])
	list[i] = e
	return dropHead(list, limit)
}

func dropHead(list []Extreme, limit int) []Extreme {
	if len(list) > limit {
		copy(list, list[1:])
		list = list[:limit]
	}
	return list
}

// --- comm3: periodic boundary exchange ----------------------------------------

// Comm3 updates the artificial boundary elements of an extended grid from
// the opposite interior planes (paper, Fig. 5): along every axis, plane 0
// receives plane m-2 and plane m-1 receives plane 1. This is the serial
// equivalent of the NPB comm3 halo exchange.
func Comm3(u *array.Array) {
	shp := u.Shape()
	if shp.Rank() != 3 {
		panic(fmt.Sprintf("nas: Comm3 requires rank 3, got %v", shp))
	}
	n0, n1, n2 := shp[0], shp[1], shp[2]
	d := u.Data()
	// Axis 2 (contiguous): only interior planes of axes 0 and 1, like the
	// Fortran loops.
	for i := 1; i < n0-1; i++ {
		for j := 1; j < n1-1; j++ {
			base := (i*n1 + j) * n2
			d[base] = d[base+n2-2]
			d[base+n2-1] = d[base+1]
		}
	}
	// Axis 1: full rows along axis 2, interior planes of axis 0.
	for i := 1; i < n0-1; i++ {
		top := (i * n1) * n2
		bot := (i*n1 + n1 - 1) * n2
		src0 := (i*n1 + n1 - 2) * n2
		src1 := (i*n1 + 1) * n2
		copy(d[top:top+n2], d[src0:src0+n2])
		copy(d[bot:bot+n2], d[src1:src1+n2])
	}
	// Axis 0: full planes.
	plane := n1 * n2
	copy(d[0:plane], d[(n0-2)*plane:(n0-1)*plane])
	copy(d[(n0-1)*plane:n0*plane], d[plane:2*plane])
}

// --- norm2u3: the benchmark's norms --------------------------------------------

// Norm2u3 returns the discrete L2 norm (sqrt of the mean square over the
// nx·ny·nz interior points) and the maximum absolute value of the interior
// of r — NPB's norm2u3, whose L2 result is the verified quantity.
func Norm2u3(r *array.Array, n int) (rnm2, rnmu float64) {
	shp := r.Shape()
	m1, m2 := shp[1], shp[2]
	d := r.Data()
	var sum, maxAbs float64
	for i3 := 1; i3 < shp[0]-1; i3++ {
		for i2 := 1; i2 < m1-1; i2++ {
			base := (i3*m1 + i2) * m2
			for i1 := 1; i1 < m2-1; i1++ {
				v := d[base+i1]
				sum += v * v
				if a := math.Abs(v); a > maxAbs {
					maxAbs = a
				}
			}
		}
	}
	total := float64(n) * float64(n) * float64(n)
	return math.Sqrt(sum / total), maxAbs
}

// Norm2u3Planes is Norm2u3 with the sum of squares folded in the canonical
// blocked association of the parallel fused kernels: a running
// left-to-right sum per row, rows folded in ascending order into a plane
// partial, plane partials folded in ascending order. The row sums detach
// from the grand total exactly where the fused resid+norm kernel detaches
// them, so this function reproduces the parallel result bit for bit on one
// thread — for any worker count and scheduling policy of the parallel
// run. (The flat Norm2u3 differs from it in the last ulp or two;
// the legacy f77/cport paths keep Norm2u3 so their mutual bitwise equality
// is untouched, while mgmpi's distributed reduction folds per-plane
// partials in this same association — rank-count-invariant for slab
// decompositions.)
func Norm2u3Planes(r *array.Array, n int) (rnm2, rnmu float64) {
	shp := r.Shape()
	m1, m2 := shp[1], shp[2]
	d := r.Data()
	var sum, maxAbs float64
	for i3 := 1; i3 < shp[0]-1; i3++ {
		var planeSum float64
		for i2 := 1; i2 < m1-1; i2++ {
			base := (i3*m1 + i2) * m2
			var rowSum float64
			rowSum, maxAbs = SumSquares(d[base+1:base+m2-1], maxAbs)
			planeSum += rowSum
		}
		sum += planeSum
	}
	total := float64(n) * float64(n) * float64(n)
	return math.Sqrt(sum / total), maxAbs
}

// SumSquares is the one row fold of every plane-associated norm:
// periodic's, mgmpi's, core's fused resid+norm rows and Norm2u3Planes.
// It returns the running left-to-right sum of v·v over row and maxAbs
// raised to the largest |v| in it. The bit-identity tests anchor on
// this association; internal/simd's AVX2 fold is checked against it.
func SumSquares(row []float64, maxAbs float64) (float64, float64) {
	var sum float64
	for _, v := range row {
		sum += v * v
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	return sum, maxAbs
}

// Probe is the instrumentation hook shared by all MG implementations:
// when set on a solver it receives the wall-clock duration of every kernel
// invocation, tagged with the kernel name and grid level. The SMP cost
// model (internal/smp) uses these measurements as its work profile.
type Probe func(region string, level int, elapsed time.Duration)

// Benchmark is the solve contract every single-process MG implementation
// (core, periodic, f77, cport) meets. Reset builds the untimed initial
// state: u = 0 and the zran3 right-hand side. Solve is the whole timed
// section of the NPB rules — the initial resid plus Iter × (mg3P +
// resid) — and returns the final norms. U is the finest-level solution
// Solve left behind. Callers time Solve alone and never re-spell its loop.
type Benchmark interface {
	Reset()
	Solve() (rnm2, rnmu float64)
	U() *array.Array
}
