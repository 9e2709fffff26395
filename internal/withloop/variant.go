package withloop

import (
	"fmt"
	"os"
	"sync"

	"repro/internal/simd"
)

// Kernel-variant names: the inner-loop backends of the rank-3 plane
// kernels (internal/core, "Kernel variants"). All three compute the same
// bits; the choice only changes speed.
const (
	VariantScalar   = "scalar"
	VariantBuffered = "buffered"
	VariantSIMD     = "simd"
)

// ValidVariant reports whether s is acceptable where a variant may be
// named: one of the three names, or "" for "no choice, apply the rule".
func ValidVariant(s string) bool {
	switch s {
	case "", VariantScalar, VariantBuffered, VariantSIMD:
		return true
	}
	return false
}

// minLinedExtent is the shortest interior row the line-buffered backends
// pay off on: below it the buffer fills cost more than the sub-sums they
// save.
const minLinedExtent = 8

// DefaultVariant is the backend rule for a plane kernel at MG level
// `level` (interior rows of 2^level points): a function of the row length
// and the CPU, nothing else. Rows too short to amortise the line buffers
// run the scalar loops; longer rows run the line-buffered form — its AVX2
// rows (simd) where that path is live, its pure-Go rows (buffered)
// elsewhere. On a host without AVX2 buffered is the faster of the two
// pure-Go forms (EXPERIMENTS.md T-variant); simd there would decline
// every plane to the buffered rows.
func DefaultVariant(level int) string {
	switch {
	case 1<<level < minLinedExtent:
		return VariantScalar
	case simd.Available():
		return VariantSIMD
	}
	return VariantBuffered
}

// ForcedVariant returns the process-wide kernel-variant override from the
// MG_FORCE_VARIANT environment variable ("" when unset). Read once: the
// override is a CI/debug lever, not a runtime toggle. A value that names
// no variant panics at first use — and at every later one — rather than
// run some other backend under the misspelt name.
var ForcedVariant = sync.OnceValue(func() string {
	v := os.Getenv("MG_FORCE_VARIANT")
	mustNameVariant("MG_FORCE_VARIANT", v)
	return v
})

// mustNameVariant panics, naming the accepted values, unless v is a valid
// variant choice for source.
func mustNameVariant(source, v string) {
	if !ValidVariant(v) {
		panic(fmt.Sprintf("withloop: %s=%q names no kernel variant (accepted: %s, %s, %s)",
			source, v, VariantScalar, VariantBuffered, VariantSIMD))
	}
}

// VariantFor resolves the backend a plane kernel at MG level `level` runs:
// the MG_FORCE_VARIANT environment variable, else override (Env.Variant —
// a service request's field) when non-empty, else
// DefaultVariant(level). It is the one place the precedence is spelled;
// Env.PlanFor and core.PlaneVariant call it. An override that names no
// variant panics like a misspelt MG_FORCE_VARIANT, whatever the variable
// says.
func VariantFor(level int, override string) string {
	mustNameVariant("Env.Variant", override)
	if forced := ForcedVariant(); forced != "" {
		return forced
	}
	if override != "" {
		return override
	}
	return DefaultVariant(level)
}
