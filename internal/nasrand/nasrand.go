// Package nasrand implements the NAS Parallel Benchmarks pseudorandom
// number generator (randlc / vranlc from the NPB specification): the linear
// congruential sequence
//
//	x_{k+1} = a · x_k  mod 2^46,     r_k = x_k · 2^-46
//
// with multiplier a = 5^13 and default seed 314159265. The generator has
// period 2^44 and produces uniform doubles in (0, 1). MG uses it in zran3
// to build the initial charge distribution, so bit-exact agreement with the
// Fortran original matters: the positions of the +1/−1 charges — and hence
// the official verification norms — depend on every bit of every value.
//
// The Fortran implementation emulates 46-bit integer arithmetic with pairs
// of doubles; here the recurrence is computed directly in 64-bit integers,
// which is exactly equivalent because 2^46 divides 2^64: the low 46 bits of
// the wrapped 64-bit product equal the full product mod 2^46.
package nasrand

// Generator constants from the NPB specification.
const (
	// Mult is the LCG multiplier a = 5^13.
	Mult uint64 = 1220703125
	// DefaultSeed is the seed every NPB benchmark starts from.
	DefaultSeed uint64 = 314159265
	// modMask reduces modulo 2^46.
	modMask uint64 = 1<<46 - 1
	// scale converts a 46-bit state to a double in (0,1).
	scale = 1.0 / (1 << 46)
)

// Rand is a NAS LCG stream. The zero value is invalid; use New.
type Rand struct {
	x uint64
}

// New returns a stream seeded with the given 46-bit state. Seeds are taken
// modulo 2^46. New(0) would produce the all-zero fixed point, so the NPB
// seeds are always odd; the constructor does not reject 0 because PowMod
// composition can legitimately pass through any state the caller computed.
func New(seed uint64) *Rand { return &Rand{x: seed & modMask} }

// State returns the current 46-bit state x_k.
func (r *Rand) State() uint64 { return r.x }

// NextWith advances the stream once using the multiplier a mod 2^46 —
// the general randlc(x, a). NPB uses this to jump streams by precomputed
// powers of the base multiplier.
func (r *Rand) NextWith(a uint64) float64 {
	r.x = (r.x * a) & modMask
	return float64(r.x) * scale
}

// The multipliers a², a³ and a⁴ mod 2^46 of Fill's interleaved streams
// (untyped: a⁴ exceeds 64 bits before the reduction).
const (
	mult2 = 1220703125 * 1220703125 % (1 << 46)
	mult3 = mult2 * 1220703125 % (1 << 46)
	mult4 = mult3 * 1220703125 % (1 << 46)
)

// Fill writes len(dst) consecutive values into dst — NPB's
// vranlc(n, x, a, y) with the default multiplier. It runs four interleaved
// streams, x_{i+4} = a⁴·x_i mod 2^46, so that four multiply chains overlap
// instead of one; the arithmetic is exact, so they produce the one
// stream's values. A state below 2^46 converts to float64 exactly through
// int64, which takes one instruction where uint64 takes a branch.
func (r *Rand) Fill(dst []float64) {
	x := r.x
	n := len(dst) &^ 3
	if n > 0 {
		x0, x1, x2, x3 := (x*Mult)&modMask, (x*mult2)&modMask, (x*mult3)&modMask, (x*mult4)&modMask
		for i := 0; i < n; i += 4 {
			d := dst[i : i+4 : i+4]
			d[0], d[1], d[2], d[3] = float64(int64(x0))*scale, float64(int64(x1))*scale, float64(int64(x2))*scale, float64(int64(x3))*scale
			x = x3
			x0, x1, x2, x3 = (x0*mult4)&modMask, (x1*mult4)&modMask, (x2*mult4)&modMask, (x3*mult4)&modMask
		}
	}
	for i := n; i < len(dst); i++ {
		x = (x * Mult) & modMask
		dst[i] = float64(int64(x)) * scale
	}
	r.x = x
}

// PowMod computes a^n mod 2^46 by binary exponentiation — NPB's power
// function, used to compute the per-row and per-plane stream offsets of
// zran3.
func PowMod(a uint64, n uint64) uint64 {
	result := uint64(1)
	base := a & modMask
	for n > 0 {
		if n&1 == 1 {
			result = (result * base) & modMask
		}
		base = (base * base) & modMask
		n >>= 1
	}
	return result
}
