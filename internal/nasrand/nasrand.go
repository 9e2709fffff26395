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

// Fill writes len(dst) consecutive values into dst — NPB's
// vranlc(n, x, a, y) with the default multiplier.
func (r *Rand) Fill(dst []float64) {
	x := r.x
	for i := range dst {
		x = (x * Mult) & modMask
		dst[i] = float64(x) * scale
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
