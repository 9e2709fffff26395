package simd

// SetAsm switches the AVX2 path on or off for the package tests and
// returns whether it was on. Switching it on is only safe where it was on.
func SetAsm(on bool) (was bool) {
	was, useAsm = useAsm, on
	return was
}
