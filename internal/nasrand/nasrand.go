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

// NextWith advances the stream once using the multiplier a mod 2^46 —
// the general randlc(x, a). NPB uses this to jump streams by precomputed
// powers of the base multiplier.
func (r *Rand) NextWith(a uint64) float64 {
	r.x = (r.x * a) & modMask
	return float64(r.x) * scale
}

// The multipliers a², a³ and a⁴ mod 2^46 of Walk's blocks of four
// (untyped: a⁴ exceeds 64 bits before the reduction).
const (
	mult2 = 1220703125 * 1220703125 % (1 << 46)
	mult3 = mult2 * 1220703125 % (1 << 46)
	mult4 = mult3 * 1220703125 % (1 << 46)
)

// Walk draws the next count values of the stream — NPB's vranlc(n, x, a,
// y) with the default multiplier — and passes to visit each value outside
// the closed band [lo, hi], with its index in the walk (0 for the first
// value drawn). visit returns the band for the values after it; a band
// with hi < lo passes every value. Since r_k = x_k · 2^-46 exactly, the
// band is a range of states: the walk compares states and converts only
// the values it passes to float64.
//
// The walk keeps a state x as X = x·2^18, the top 46 bits of a word: then
// X·a mod 2^64 is (x·a mod 2^46)·2^18, so the word's own wraparound does
// the reduction and no mask is needed. It draws four values per step,
// X·a, X·a², X·a³ and X·a⁴, so the four multiplies overlap and only the
// last carries to the next step; the arithmetic is exact, so they are the
// one stream's values. A step that passes a value recomputes its products
// rather than keeping all four: kept, each cost the loop a register copy.
func (r *Rand) Walk(count int, lo, hi float64, visit func(i int, v float64) (lo, hi float64)) {
	x := r.x << stateShift
	blo, bw := states(lo, hi)
	i := 0
	for ; i+4 <= count; i += 4 {
		x4 := x * mult4
		// x−blo ≤ bw is blo ≤ x ≤ blo+bw in one unsigned compare.
		if x*Mult-blo > bw || x*mult2-blo > bw || x*mult3-blo > bw || x4-blo > bw {
			for j, a := range [4]uint64{Mult, mult2, mult3, mult4} {
				if s := x * a; s-blo > bw {
					blo, bw = states(visit(i+j, value(s)))
				}
			}
		}
		x = x4
	}
	for ; i < count; i++ {
		x *= Mult
		if x-blo > bw {
			blo, bw = states(visit(i, value(x)))
		}
	}
	r.x = x >> stateShift
}

// stateShift places a 46-bit state in the top bits of a word.
const stateShift = 64 - 46

// value converts a shifted state to its value. A state below 2^46
// converts to float64 exactly through int64, which takes one instruction
// where uint64 takes a branch.
func value(x uint64) float64 { return float64(int64(x>>stateShift)) * scale }

// states converts the value band [lo, hi] to the shifted states it holds,
// as the first blo and the width bw of the range blo … blo+bw: x·2^-46 ≥
// lo exactly when x ≥ ⌈lo·2^46⌉, the scaling being exact. An empty band
// (or a NaN bound) is the range of the one word 1, which no shifted state
// is.
func states(lo, hi float64) (blo, bw uint64) {
	// Clamped to the states 0 … 2^46−1, the conversions stay in range.
	l, h := max(lo, 0)*(1<<46), min(hi, 1)*(1<<46)
	if !(l <= h) {
		return 1, 0
	}
	bl, bh := int64(l), int64(h) // toward zero, then to ⌈l⌉ and ⌊h⌋
	if float64(bl) < l {
		bl++
	}
	if float64(bh) > h {
		bh--
	}
	bh = min(bh, 1<<46-1)
	if bh < bl {
		return 1, 0
	}
	return uint64(bl) << stateShift, uint64(bh-bl) << stateShift
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
