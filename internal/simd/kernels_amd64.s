// AVX2 row kernels for the line-buffered stencil form. Every lane
// evaluates the canonical association of internal/stencil with plain
// VADDPD/VMULPD (no FMA), so results are bit-identical to the pure-Go
// fallbacks; the interleave/gather kernels add only lane moves (unpack,
// shuffle, permute) to that. n is a multiple of 4 (the Go wrappers handle
// tails).

#include "textflag.h"

// func sum2AVX2(dst, a, b *float64, n int)
TEXT ·sum2AVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), R8
	XORQ AX, AX
sum2loop:
	CMPQ AX, R8
	JGE  sum2done
	VMOVUPD (SI)(AX*8), Y0
	VADDPD  (BX)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  sum2loop
sum2done:
	VZEROUPPER
	RET

// func sum4AVX2(dst, a, b, c, d *float64, n int)
// dst = ((a + b) + c) + d
TEXT ·sum4AVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ c+24(FP), CX
	MOVQ d+32(FP), DX
	MOVQ n+40(FP), R8
	XORQ AX, AX
sum4loop:
	CMPQ AX, R8
	JGE  sum4done
	VMOVUPD (SI)(AX*8), Y0
	VADDPD  (BX)(AX*8), Y0, Y0
	VADDPD  (CX)(AX*8), Y0, Y0
	VADDPD  (DX)(AX*8), Y0, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  sum4loop
sum4done:
	VZEROUPPER
	RET

// The three relax rows share one combine tree over the centre row x and
// the u1/u2 line buffers, computed for k = AX..AX+3 into Y3:
//
//	s1 = (x[k-1] + x[k+1]) + u1[k]                      (Y0)
//	s2 = (u2[k] + u1[k-1]) + u1[k+1]                    (Y1)
//	s3 = u2[k-1] + u2[k+1]                              (Y2)
//	Y3 = ((c0*x[k] + c1*s1) + c2*s2) + c3*s3
//
// with the broadcast coefficients in Y12..Y15 and x/u1/u2 in R10/R11/R12.
#define STENCIL_COMBINE \
	VMOVUPD -8(R10)(AX*8), Y0  \
	VADDPD  8(R10)(AX*8), Y0, Y0 \
	VADDPD  (R11)(AX*8), Y0, Y0 \
	VMOVUPD (R12)(AX*8), Y1    \
	VADDPD  -8(R11)(AX*8), Y1, Y1 \
	VADDPD  8(R11)(AX*8), Y1, Y1 \
	VMOVUPD -8(R12)(AX*8), Y2  \
	VADDPD  8(R12)(AX*8), Y2, Y2 \
	VMULPD  (R10)(AX*8), Y12, Y3 \
	VMULPD  Y0, Y13, Y4        \
	VADDPD  Y4, Y3, Y3         \
	VMULPD  Y1, Y14, Y4        \
	VADDPD  Y4, Y3, Y3         \
	VMULPD  Y2, Y15, Y4        \
	VADDPD  Y4, Y3, Y3

#define LOAD_COEFFS(creg) \
	VBROADCASTSD 0(creg), Y12  \
	VBROADCASTSD 8(creg), Y13  \
	VBROADCASTSD 16(creg), Y14 \
	VBROADCASTSD 24(creg), Y15

// func subRelaxRowAVX2(o, v, x, u1, u2 *float64, n int, c *[4]float64)
// o[k] = v[k] - stencil(k) for k = 1..n
TEXT ·subRelaxRowAVX2(SB), NOSPLIT, $0-56
	MOVQ o+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ x+16(FP), R10
	MOVQ u1+24(FP), R11
	MOVQ u2+32(FP), R12
	MOVQ n+40(FP), R8
	MOVQ c+48(FP), R9
	LOAD_COEFFS(R9)
	MOVQ $1, AX
	ADDQ $1, R8   // limit: k runs 1..n inclusive
subloop:
	CMPQ AX, R8
	JGE  subdone
	STENCIL_COMBINE
	VMOVUPD (SI)(AX*8), Y5
	VSUBPD  Y3, Y5, Y5   // v - stencil
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ $4, AX
	JMP  subloop
subdone:
	VZEROUPPER
	RET

// func addRelaxRowAVX2(o, z, x, u1, u2 *float64, n int, c *[4]float64)
// o[k] = z[k] + stencil(k) for k = 1..n
TEXT ·addRelaxRowAVX2(SB), NOSPLIT, $0-56
	MOVQ o+0(FP), DI
	MOVQ z+8(FP), SI
	MOVQ x+16(FP), R10
	MOVQ u1+24(FP), R11
	MOVQ u2+32(FP), R12
	MOVQ n+40(FP), R8
	MOVQ c+48(FP), R9
	LOAD_COEFFS(R9)
	MOVQ $1, AX
	ADDQ $1, R8
addloop:
	CMPQ AX, R8
	JGE  adddone
	STENCIL_COMBINE
	VMOVUPD (SI)(AX*8), Y5
	VADDPD  Y3, Y5, Y5   // z + stencil
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ $4, AX
	JMP  addloop
adddone:
	VZEROUPPER
	RET

// func addRelaxPlusRowAVX2(o, w, z, x, u1, u2 *float64, n int, c *[4]float64)
// o[k] = w[k] + (z[k] + stencil(k)) for k = 1..n
TEXT ·addRelaxPlusRowAVX2(SB), NOSPLIT, $0-64
	MOVQ o+0(FP), DI
	MOVQ w+8(FP), SI
	MOVQ z+16(FP), DX
	MOVQ x+24(FP), R10
	MOVQ u1+32(FP), R11
	MOVQ u2+40(FP), R12
	MOVQ n+48(FP), R8
	MOVQ c+56(FP), R9
	LOAD_COEFFS(R9)
	MOVQ $1, AX
	ADDQ $1, R8
plusloop:
	CMPQ AX, R8
	JGE  plusdone
	STENCIL_COMBINE
	VMOVUPD (DX)(AX*8), Y5
	VADDPD  Y3, Y5, Y5   // z + stencil
	VMOVUPD (SI)(AX*8), Y6
	VADDPD  Y5, Y6, Y6   // w + (z + stencil)
	VMOVUPD Y6, (DI)(AX*8)
	ADDQ $4, AX
	JMP  plusloop
plusdone:
	VZEROUPPER
	RET

// func interpRowAVX2(o, b *float64, n int, cEven, cOdd float64)
// For m = 0..n-1: o[2m+1] = cOdd*(b[m] + b[m+1]), o[2m+2] = cEven*b[m+1].
// Four m per step: the odd (Y0) and even (Y1) products interleave through
// unpack + 128-bit permute into two contiguous stores.
TEXT ·interpRowAVX2(SB), NOSPLIT, $0-40
	MOVQ o+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), R8
	VBROADCASTSD cEven+24(FP), Y14
	VBROADCASTSD cOdd+32(FP), Y15
	XORQ AX, AX   // m
	XORQ CX, CX   // 2m
interploop:
	CMPQ AX, R8
	JGE  interpdone
	VMOVUPD (SI)(AX*8), Y0
	VMOVUPD 8(SI)(AX*8), Y1
	VADDPD  Y1, Y0, Y0          // b[m] + b[m+1]
	VMULPD  Y0, Y15, Y0         // odd:  O0 O1 O2 O3
	VMULPD  Y1, Y14, Y1         // even: E0 E1 E2 E3
	VUNPCKLPD Y1, Y0, Y2        // O0 E0 O2 E2
	VUNPCKHPD Y1, Y0, Y3        // O1 E1 O3 E3
	VPERM2F128 $0x20, Y3, Y2, Y4 // O0 E0 O1 E1
	VPERM2F128 $0x31, Y3, Y2, Y5 // O2 E2 O3 E3
	VMOVUPD Y4, 8(DI)(CX*8)
	VMOVUPD Y5, 40(DI)(CX*8)
	ADDQ $4, AX
	ADDQ $8, CX
	JMP  interploop
interpdone:
	VZEROUPPER
	RET

// func projectRowAVX2(o, x, u1, u2 *float64, n int, c *[4]float64)
// o[j] = stencil(2j) for j = 1..n. Four j per step: the combine runs at
// k..k+3 and at k+3..k+6 (so the highest index read is k+7, inside a row
// of 2(n+1) elements), and the even-k lanes r[k], r[k+2] of the first and
// r[k+4], r[k+6] of the second are gathered into one contiguous store.
TEXT ·projectRowAVX2(SB), NOSPLIT, $0-48
	MOVQ o+0(FP), DI
	MOVQ x+8(FP), R10
	MOVQ u1+16(FP), R11
	MOVQ u2+24(FP), R12
	MOVQ n+32(FP), R8
	MOVQ c+40(FP), R9
	LOAD_COEFFS(R9)
	MOVQ $2, AX   // k = 2j
	MOVQ $1, BX   // j
	ADDQ $1, R8   // limit: j runs 1..n inclusive
projloop:
	CMPQ BX, R8
	JGE  projdone
	STENCIL_COMBINE
	VMOVAPD Y3, Y6              // r[k]   r[k+1] r[k+2] r[k+3]
	ADDQ $3, AX
	STENCIL_COMBINE             // r[k+3] r[k+4] r[k+5] r[k+6]
	VSHUFPD $0xA, Y3, Y6, Y6    // r[k]   r[k+4] r[k+2] r[k+6]
	VPERMPD $0xD8, Y6, Y6       // r[k]   r[k+2] r[k+4] r[k+6]
	VMOVUPD Y6, (DI)(BX*8)
	ADDQ $5, AX
	ADDQ $4, BX
	JMP  projloop
projdone:
	VZEROUPPER
	RET
