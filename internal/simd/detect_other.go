//go:build !amd64

package simd

// Non-amd64 builds have no assembly path: useAsm stays false and every
// primitive runs its pure-Go loop.
func hasAVX2() bool { return false }

func sum2Asm(dst, a, b []float64) int       { return 0 }
func sum4Asm(dst, a, b, c, d []float64) int { return 0 }

func subRelaxRowAVX2(o, v, x, u1, u2 *float64, n int, c *[4]float64)        {}
func addRelaxRowAVX2(o, z, x, u1, u2 *float64, n int, c *[4]float64)        {}
func addRelaxPlusRowAVX2(o, w, z, x, u1, u2 *float64, n int, c *[4]float64) {}
func interpRowAVX2(o, b *float64, n int, cEven, cOdd float64)               {}
func projectRowAVX2(o, x, u1, u2 *float64, n int, c *[4]float64)            {}
