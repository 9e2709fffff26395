//go:build !amd64

package simd

// Non-amd64 builds have no assembly path: useAsm stays false, every
// primitive declines, and these are never called. Their signatures
// match stubs_amd64.go, so the callers in simd.go compile everywhere.
func hasAVX2() bool { return false }

func subRelaxPlaneAVX2(o, v, um, uz, up *float64, n1, n2 int, c *[4]float64, u *float64, mode int) (sum, maxAbs float64) {
	return 0, 0
}

func addRelaxPlaneAVX2(o, z, w, rm, rz, rp *float64, n1, n2 int, c *[4]float64, u *float64, mode int) {
}

func projectPlaneAVX2(o, rm, rz, rp *float64, fn int, c *[4]float64, u1, u2 *float64) {
}

func interpPlaneAVX2(o, zl, zh *float64, o3, cn1, cn2, m int, c *[4]float64, b *float64) {
}
