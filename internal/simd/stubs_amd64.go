package simd

// Assembly kernels (kernels_amd64.s). Each walks the interior rows of one
// plane; the Go wrappers in simd.go check the shapes and lengths they
// rely on.

//go:noescape
func subRelaxPlaneAVX2(o, v, um, uz, up *float64, n1, n2 int, c *[4]float64, u *float64, mode int) (sum, maxAbs float64)

//go:noescape
func addRelaxPlaneAVX2(o, z, w, rm, rz, rp *float64, n1, n2 int, c *[4]float64, u *float64, mode int)

//go:noescape
func projectPlaneAVX2(o, rm, rz, rp *float64, fn int, c *[4]float64, u1, u2 *float64)

//go:noescape
func interpPlaneAVX2(o, zl, zh *float64, o3, cn1, cn2, m int, c *[4]float64, b *float64)
