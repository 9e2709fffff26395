package simd

// Implemented in cpuid_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX2 detects AVX2 the full way: the instruction set must exist
// (CPUID.7.0:EBX bit 5), the AVX state machinery must exist (CPUID.1:ECX
// bits 27/28 — OSXSAVE and AVX), and the OS must have enabled XMM+YMM
// state saving (XCR0 bits 1/2 via XGETBV). Skipping the XCR0 check would
// fault with SIGILL on kernels that mask AVX state.
func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	const osxsave = 1 << 27
	const avx = 1 << 28
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}
