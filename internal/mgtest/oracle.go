// Executable specification: a deliberately naive MG implementation used
// only as a test oracle. Every operation is written in the most obvious
// possible form — modular indexing on the torus, 27 explicit coefficient
// lookups per point, no buffers, no fusion, no extended grids — so its
// correctness can be checked by eye against the paper's Fig. 2. The
// border-free solver (internal/periodic) is tested against it on small
// grids; the oracle itself is validated by the official verification
// values (internal/nas's golden test).

package mgtest

import "repro/internal/array"

// OracleStencil applies a 27-point stencil with coefficients by distance
// class (centre, face, edge, corner) to a compact n³ torus grid, the
// slow, obviously-correct way.
func OracleStencil(u *array.Array, c [4]float64) *array.Array {
	n := u.Shape()[0]
	out := array.New(u.Shape())
	wrap := func(i int) int { return (i%n + n) % n }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				sum := 0.0
				for di := -1; di <= 1; di++ {
					for dj := -1; dj <= 1; dj++ {
						for dk := -1; dk <= 1; dk++ {
							class := 0
							if di != 0 {
								class++
							}
							if dj != 0 {
								class++
							}
							if dk != 0 {
								class++
							}
							sum += c[class] * u.At3(wrap(i+di), wrap(j+dj), wrap(k+dk))
						}
					}
				}
				out.Set3(i, j, k, sum)
			}
		}
	}
	return out
}

// OracleRestrict maps a compact fine torus grid (n³) to the coarse one
// ((n/2)³): the P stencil evaluated at the odd fine positions (the coarse
// anchor convention of the extended-grid formulation; see
// internal/periodic's package comment).
func OracleRestrict(r *array.Array) *array.Array {
	pr := OracleStencil(r, [4]float64{0.5, 0.25, 0.125, 0.0625})
	n := r.Shape()[0]
	nc := n / 2
	out := array.New([]int{nc, nc, nc})
	for i := 0; i < nc; i++ {
		for j := 0; j < nc; j++ {
			for k := 0; k < nc; k++ {
				out.Set3(i, j, k, pr.At3(2*i+1, 2*j+1, 2*k+1))
			}
		}
	}
	return out
}

// OracleInterp maps a compact coarse torus grid (nc³) to the fine one
// ((2nc)³) by trilinear interpolation with anchors at odd fine positions.
func OracleInterp(z *array.Array) *array.Array {
	nc := z.Shape()[0]
	n := 2 * nc
	out := array.New([]int{n, n, n})
	wrap := func(c int) int { return (c%nc + nc) % nc }
	// Fine position f: odd → on an anchor (coarse (f-1)/2); even →
	// between anchors (f/2-1 and f/2, wrapped).
	anchors := func(f int) (lo, hi int) {
		if f%2 == 1 {
			c := (f - 1) / 2
			return c, c
		}
		return wrap(f/2 - 1), wrap(f / 2)
	}
	for i := 0; i < n; i++ {
		li, hi_ := anchors(i)
		for j := 0; j < n; j++ {
			lj, hj := anchors(j)
			for k := 0; k < n; k++ {
				lk, hk := anchors(k)
				sum, cnt := 0.0, 0
				for _, ci := range dedup(li, hi_) {
					for _, cj := range dedup(lj, hj) {
						for _, ck := range dedup(lk, hk) {
							sum += z.At3(ci, cj, ck)
							cnt++
						}
					}
				}
				out.Set3(i, j, k, sum/float64(cnt))
			}
		}
	}
	return out
}

func dedup(a, b int) []int {
	if a == b {
		return []int{a}
	}
	return []int{a, b}
}

// OracleVCycle is the recursive V-cycle of the paper's Fig. 2, written
// directly from the mathematical specification on compact torus grids.
func OracleVCycle(r *array.Array, opA, opS [4]float64) *array.Array {
	n := r.Shape()[0]
	if n <= 2 {
		return OracleStencil(r, opS) // M¹ ≡ S
	}
	rn := OracleRestrict(r)
	zn := OracleVCycle(rn, opA, opS)
	z := OracleInterp(zn)
	// r' = r − A z;  z' = z + S r'
	az := OracleStencil(z, opA)
	r2 := array.New(r.Shape())
	for i := range r2.Data() {
		r2.Data()[i] = r.Data()[i] - az.Data()[i]
	}
	sr := OracleStencil(r2, opS)
	out := array.New(r.Shape())
	for i := range out.Data() {
		out.Data()[i] = z.Data()[i] + sr.Data()[i]
	}
	return out
}
