package simd

// Assembly kernels (kernels_amd64.s). n is the element count to process
// and must be a multiple of 4; the relax rows start at index 1 (the row
// interior) and read indices 0..n+1 of every input, so the caller
// guarantees n ≤ len−2.

//go:noescape
func sum2AVX2(dst, a, b *float64, n int)

//go:noescape
func sum4AVX2(dst, a, b, c, d *float64, n int)

//go:noescape
func subRelaxRowAVX2(o, v, x, u1, u2 *float64, n int, c *[4]float64)

//go:noescape
func addRelaxRowAVX2(o, z, x, u1, u2 *float64, n int, c *[4]float64)

//go:noescape
func addRelaxPlusRowAVX2(o, w, z, x, u1, u2 *float64, n int, c *[4]float64)

// interpRowAVX2 writes o[1..2n] from b[0..n]; projectRowAVX2 writes
// o[1..n] from indices 1..2n+1 of x, u1 and u2.

//go:noescape
func interpRowAVX2(o, b *float64, n int, cEven, cOdd float64)

//go:noescape
func projectRowAVX2(o, x, u1, u2 *float64, n int, c *[4]float64)
