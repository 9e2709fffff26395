// AVX2 plane kernels of the line-buffered stencil form. Each function
// walks every interior row of one plane: it fills the line buffers, then
// combines four lanes at a time and finishes the row with one lane at a
// time, so no output element is computed twice (outputs may alias their
// element-wise operands). subRelax and addRelax take the rows in pairs:
// one column pass fills both rows' buffers from rows j−1 … j+2 of the
// three input planes (FILL_PAIR, 12 row loads per four-column block where
// two one-row fills take 16), then the two rows combine back to back; an
// odd last row fills its own (FILL_ROWS). Every lane evaluates the canonical
// association of internal/stencil with plain VADDPD/VMULPD (no FMA), and a
// term whose coefficient is exactly zero is dropped where the buffered Go
// rows drop it, so the results are those rows' bits. Only the buffer fills
// end on an overlapping block: they write private buffers, and writing an
// element twice writes the same value.
//
// Register conventions: R8/R9/R10 walk the rows of the three input planes
// (below, at and above the output plane), DX is their row stride in bytes
// (and a line buffer's), DI walks the output rows, R11/R12 hold the line
// buffers, AX is the column index, BX the last column of a loop, and
// Y12–Y15 hold the broadcast coefficients c0–c3 (their low lanes serve the
// scalar tails).

#include "textflag.h"

#define LOAD_COEFFS(creg) \
	VBROADCASTSD 0(creg), Y12  \
	VBROADCASTSD 8(creg), Y13  \
	VBROADCASTSD 16(creg), Y14 \
	VBROADCASTSD 24(creg), Y15

// dst[k] = ((a[k] + b[k]) + c[k]) + d[k] and dst[k] = a[k] + b[k] for
// k = AX … AX+3.
#define SUM4_AT(dst, a, b, c, d) \
	VMOVUPD (a)(AX*8), Y0     \
	VADDPD  (b)(AX*8), Y0, Y0 \
	VADDPD  (c)(AX*8), Y0, Y0 \
	VADDPD  (d)(AX*8), Y0, Y0 \
	VMOVUPD Y0, (dst)(AX*8)

#define SUM2_AT(dst, a, b) \
	VMOVUPD (a)(AX*8), Y0     \
	VADDPD  (b)(AX*8), Y0, Y0 \
	VMOVUPD Y0, (dst)(AX*8)

// FILL runs SUM over a whole buffer of BX ≥ 4 elements, the last block
// ending flush with it.
#define FILL(SUM, body, chk) \
	SUBQ $4, BX  \
	XORQ AX, AX  \
	JMP  chk     \
body:            \
	SUM          \
	ADDQ $4, AX  \
chk:             \
	CMPQ AX, BX  \
	JLT  body    \
	MOVQ BX, AX  \
	SUM

// FILL_ROWS fills the line buffers of the row R8/R9/R10 point at, BX
// elements long:
//
//	u1 (R11) = ((m[j] + z[j−1]) + z[j+1]) + p[j]
//	u2 (R12) = ((m[j−1] + m[j+1]) + p[j−1]) + p[j+1]
//
// It clobbers AX, BX, CX, R11, R14 and R15.
#define FILL_ROWS(b1, c1, b2, c2) \
	MOVQ BX, R15               \
	MOVQ R9, CX                \
	SUBQ DX, CX                \
	LEAQ (R9)(DX*1), R14       \
	FILL(SUM4_AT(R11, R8, CX, R14, R10), b1, c1) \
	MOVQ R15, BX               \
	MOVQ R8, CX                \
	SUBQ DX, CX                \
	LEAQ (R8)(DX*1), R14       \
	MOVQ R10, R15              \
	SUBQ DX, R15               \
	LEAQ (R10)(DX*1), R11      \
	FILL(SUM4_AT(R12, CX, R14, R15, R11), b2, c2)

// FILL_PAIR fills the line buffers of the row pair j, j+1 that R8/R9/R10
// point at (row j) in one column pass, n2 ≥ 4 elements long, into the
// four buffer rows around R11: u1 and u2 of row j at −DX and 0, of row j+1
// at DX and 2·DX (a buffer row is as long as a plane row):
//
//	u1[j]   = ((m[j] + z[j−1]) + z[j+1]) + p[j]
//	u2[j]   = ((m[j−1] + m[j+1]) + p[j−1]) + p[j+1]
//	u1[j+1] = ((m[j+1] + z[j]) + z[j+2]) + p[j+1]
//	u2[j+1] = ((m[j] + m[j+2]) + p[j]) + p[j+2]
//
// m[j], m[j+1], p[j] and p[j+1] serve both rows, so a block takes twelve
// row loads, not the sixteen of two FILL_ROWS. CX, R14 and R15 walk the
// columns of m, z and p, R12 = −DX, and the last block ends flush with the
// rows. It clobbers BX, CX, R11, R12, R14 and R15.
#define PAIR_BLOCK \
	VMOVUPD (CX), Y1             \
	VMOVUPD (CX)(DX*1), Y2       \
	VMOVUPD (R15), Y3            \
	VMOVUPD (R15)(DX*1), Y4      \
	VADDPD  (R14)(R12*1), Y1, Y0 \
	VADDPD  (R14)(DX*1), Y0, Y0  \
	VADDPD  Y3, Y0, Y0           \
	VMOVUPD Y0, (R11)(R12*1)     \
	VMOVUPD (CX)(R12*1), Y0      \
	VADDPD  Y2, Y0, Y0           \
	VADDPD  (R15)(R12*1), Y0, Y0 \
	VADDPD  Y4, Y0, Y0           \
	VMOVUPD Y0, (R11)            \
	VADDPD  (R14), Y2, Y0        \
	VADDPD  (R14)(DX*2), Y0, Y0  \
	VADDPD  Y4, Y0, Y0           \
	VMOVUPD Y0, (R11)(DX*1)      \
	VADDPD  (CX)(DX*2), Y1, Y0   \
	VADDPD  Y3, Y0, Y0           \
	VADDPD  (R15)(DX*2), Y0, Y0  \
	VMOVUPD Y0, (R11)(DX*2)

#define FILL_PAIR(body, chk) \
	MOVQ R8, CX                  \
	MOVQ R9, R14                 \
	MOVQ R10, R15                \
	MOVQ DX, R12                 \
	NEGQ R12                     \
	LEAQ -32(R11)(DX*1), BX      \
	JMP  chk                     \
body:                            \
	PAIR_BLOCK                   \
	ADDQ $32, CX                 \
	ADDQ $32, R14                \
	ADDQ $32, R15                \
	ADDQ $32, R11                \
chk:                             \
	CMPQ R11, BX                 \
	JLT  body                    \
	SUBQ BX, R11                 \
	SUBQ R11, CX                 \
	SUBQ R11, R14                \
	SUBQ R11, R15                \
	MOVQ BX, R11                 \
	PAIR_BLOCK

// LINES points R11 and R12 at the line buffers u1 and u2 of interior row
// t = n1−2−rows from the buffer ubuf (4·n2 long): the first row of a pair
// fills both rows' buffers, the second finds its own filled, and a last
// row without a pair fills its own with FILL_ROWS.
#define LINES(ubuf, n1, n2, rows, second, one, lined, pb, pc, f1, c1, f2, c2) \
	MOVQ  ubuf, R11              \
	MOVQ  n1, CX                 \
	SUBQ  rows, CX               \
	TESTQ $1, CX                 \
	JNZ   second                 \
	CMPQ  rows, $1               \
	JEQ   one                    \
	ADDQ  DX, R11                \
	FILL_PAIR(pb, pc)            \
	MOVQ  ubuf, R11              \
	JMP   lined                  \
second:                          \
	LEAQ  (R11)(DX*2), R11       \
	JMP   lined                  \
one:                             \
	LEAQ  (R11)(DX*1), R12       \
	MOVQ  n2, BX                 \
	FILL_ROWS(f1, c1, f2, c2)    \
	MOVQ  ubuf, R11              \
lined:                           \
	LEAQ  (R11)(DX*1), R12

// Y3 = ((c0·x[k] + c1·s1) + c2·s2) + c3·s3 for k = AX … AX+3, with
//
//	s1 = (x[k−1] + x[k+1]) + u1[k]
//	s2 = (u2[k] + u1[k−1]) + u1[k+1]
//	s3 = u2[k−1] + u2[k+1]
//
// over the centre row x and the line buffers. TREE_NO1 and TREE_NO3 are
// the tree without its c1 and without its c3 term; the _SD forms compute
// lane 0 only, at k = AX.
#define TREE(x, u1, u2) \
	VMOVUPD -8(x)(AX*8), Y0      \
	VADDPD  8(x)(AX*8), Y0, Y0   \
	VADDPD  (u1)(AX*8), Y0, Y0   \
	VMOVUPD (u2)(AX*8), Y1       \
	VADDPD  -8(u1)(AX*8), Y1, Y1 \
	VADDPD  8(u1)(AX*8), Y1, Y1  \
	VMOVUPD -8(u2)(AX*8), Y2     \
	VADDPD  8(u2)(AX*8), Y2, Y2  \
	VMULPD  (x)(AX*8), Y12, Y3   \
	VMULPD  Y0, Y13, Y4          \
	VADDPD  Y4, Y3, Y3           \
	VMULPD  Y1, Y14, Y4          \
	VADDPD  Y4, Y3, Y3           \
	VMULPD  Y2, Y15, Y4          \
	VADDPD  Y4, Y3, Y3

#define TREE_NO1(x, u1, u2) \
	VMOVUPD (u2)(AX*8), Y1       \
	VADDPD  -8(u1)(AX*8), Y1, Y1 \
	VADDPD  8(u1)(AX*8), Y1, Y1  \
	VMOVUPD -8(u2)(AX*8), Y2     \
	VADDPD  8(u2)(AX*8), Y2, Y2  \
	VMULPD  (x)(AX*8), Y12, Y3   \
	VMULPD  Y1, Y14, Y4          \
	VADDPD  Y4, Y3, Y3           \
	VMULPD  Y2, Y15, Y4          \
	VADDPD  Y4, Y3, Y3

#define TREE_NO3(x, u1, u2) \
	VMOVUPD -8(x)(AX*8), Y0      \
	VADDPD  8(x)(AX*8), Y0, Y0   \
	VADDPD  (u1)(AX*8), Y0, Y0   \
	VMOVUPD (u2)(AX*8), Y1       \
	VADDPD  -8(u1)(AX*8), Y1, Y1 \
	VADDPD  8(u1)(AX*8), Y1, Y1  \
	VMULPD  (x)(AX*8), Y12, Y3   \
	VMULPD  Y0, Y13, Y4          \
	VADDPD  Y4, Y3, Y3           \
	VMULPD  Y1, Y14, Y4          \
	VADDPD  Y4, Y3, Y3

#define TREE_SD(x, u1, u2) \
	VMOVSD  -8(x)(AX*8), X0      \
	VADDSD  8(x)(AX*8), X0, X0   \
	VADDSD  (u1)(AX*8), X0, X0   \
	VMOVSD  (u2)(AX*8), X1       \
	VADDSD  -8(u1)(AX*8), X1, X1 \
	VADDSD  8(u1)(AX*8), X1, X1  \
	VMOVSD  -8(u2)(AX*8), X2     \
	VADDSD  8(u2)(AX*8), X2, X2  \
	VMULSD  (x)(AX*8), X12, X3   \
	VMULSD  X0, X13, X4          \
	VADDSD  X4, X3, X3           \
	VMULSD  X1, X14, X4          \
	VADDSD  X4, X3, X3           \
	VMULSD  X2, X15, X4          \
	VADDSD  X4, X3, X3

#define TREE_NO1_SD(x, u1, u2) \
	VMOVSD  (u2)(AX*8), X1       \
	VADDSD  -8(u1)(AX*8), X1, X1 \
	VADDSD  8(u1)(AX*8), X1, X1  \
	VMOVSD  -8(u2)(AX*8), X2     \
	VADDSD  8(u2)(AX*8), X2, X2  \
	VMULSD  (x)(AX*8), X12, X3   \
	VMULSD  X1, X14, X4          \
	VADDSD  X4, X3, X3           \
	VMULSD  X2, X15, X4          \
	VADDSD  X4, X3, X3

#define TREE_NO3_SD(x, u1, u2) \
	VMOVSD  -8(x)(AX*8), X0      \
	VADDSD  8(x)(AX*8), X0, X0   \
	VADDSD  (u1)(AX*8), X0, X0   \
	VMOVSD  (u2)(AX*8), X1       \
	VADDSD  -8(u1)(AX*8), X1, X1 \
	VADDSD  8(u1)(AX*8), X1, X1  \
	VMULSD  (x)(AX*8), X12, X3   \
	VMULSD  X0, X13, X4          \
	VADDSD  X4, X3, X3           \
	VMULSD  X1, X14, X4          \
	VADDSD  X4, X3, X3

// ROW runs a row's combine from column AX: VEC four columns at a time
// while AX ≤ BX, then SD one at a time while AX ≤ BX+3.
#define ROW(VEC, SD, vb, vc, tb, tc) \
	JMP  vc     \
vb:             \
	VEC         \
	ADDQ $4, AX \
vc:             \
	CMPQ AX, BX \
	JLE  vb     \
	ADDQ $3, BX \
	JMP  tc     \
tb:             \
	SD          \
	INCQ AX     \
tc:             \
	CMPQ AX, BX \
	JLE  tb

// The row statements: o = v − tree (SI = v), o = z + tree (SI = z), and
// o = w + (z + tree) (R13 = w), over x = R9 and the buffers R11/R12.
#define SUB_V(TR) \
	TR(R9, R11, R12)       \
	VMOVUPD (SI)(AX*8), Y5 \
	VSUBPD  Y3, Y5, Y5     \
	VMOVUPD Y5, (DI)(AX*8)

#define SUB_S(TR) \
	TR(R9, R11, R12)      \
	VMOVSD (SI)(AX*8), X5 \
	VSUBSD X3, X5, X5     \
	VMOVSD X5, (DI)(AX*8)

#define ADD_V(TR) \
	TR(R9, R11, R12)           \
	VADDPD  (SI)(AX*8), Y3, Y3 \
	VMOVUPD Y3, (DI)(AX*8)

#define ADD_S(TR) \
	TR(R9, R11, R12)          \
	VADDSD (SI)(AX*8), X3, X3 \
	VMOVSD X3, (DI)(AX*8)

#define PLUS_V(TR) \
	TR(R9, R11, R12)            \
	VADDPD  (SI)(AX*8), Y3, Y3  \
	VADDPD  (R13)(AX*8), Y3, Y3 \
	VMOVUPD Y3, (DI)(AX*8)

#define PLUS_S(TR) \
	TR(R9, R11, R12)           \
	VADDSD (SI)(AX*8), X3, X3  \
	VADDSD (R13)(AX*8), X3, X3 \
	VMOVSD X3, (DI)(AX*8)

// COLS4 loads one four-column block of the four stored rows at B, B+DX,
// B+2·DX and B+3·DX (R15 = 3·DX) as four column vectors, one row per lane:
// columns 0 … 3 in Y4, Y5, Y0 and Y1. Rows 0 and 2 (1 and 3) share a
// vector per column pair, their halves inserted as they load, and one
// unpack per column splits the pairs.
#define COLS4(B) \
	VMOVUPD     (B), X0                  \
	VINSERTF128 $1, (B)(DX*2), Y0, Y0    \
	VMOVUPD     (B)(DX*1), X1            \
	VINSERTF128 $1, (B)(R15*1), Y1, Y1   \
	VMOVUPD     16(B), X2                \
	VINSERTF128 $1, 16(B)(DX*2), Y2, Y2  \
	VMOVUPD     16(B)(DX*1), X3          \
	VINSERTF128 $1, 16(B)(R15*1), Y3, Y3 \
	VUNPCKLPD   Y1, Y0, Y4               \
	VUNPCKHPD   Y1, Y0, Y5               \
	VUNPCKLPD   Y3, Y2, Y0               \
	VUNPCKHPD   Y3, Y2, Y1

// SQUARES adds the squares of COLS4's columns to S in column order: each
// lane adds its row's squares left to right, exactly as one row's scalar
// sum does.
#define SQUARES(S) \
	VMULPD Y4, Y4, Y4 \
	VADDPD Y4, S, S   \
	VMULPD Y5, Y5, Y5 \
	VADDPD Y5, S, S   \
	VMULPD Y0, Y0, Y0 \
	VADDPD Y0, S, S   \
	VMULPD Y1, Y1, Y1 \
	VADDPD Y1, S, S

// ABSMAX raises the lane maxima M to the absolute values of COLS4's
// columns (the maximum is order-free).
#define ABSMAX(M) \
	VANDPD Y8, Y4, Y2 \
	VMAXPD M, Y2, M   \
	VANDPD Y8, Y5, Y2 \
	VMAXPD M, Y2, M   \
	VANDPD Y8, Y0, Y2 \
	VMAXPD M, Y2, M   \
	VANDPD Y8, Y1, Y2 \
	VMAXPD M, Y2, M

// GATHER1 gathers the one column at B of the four rows into Y2, for
// SQUARE1 and ABSMAX1, the one-column SQUARES and ABSMAX.
#define GATHER1(B) \
	VMOVSD      (B), X2              \
	VMOVHPD     (B)(DX*1), X2, X2    \
	VMOVSD      (B)(DX*2), X3        \
	VMOVHPD     (B)(R15*1), X3, X3   \
	VINSERTF128 $1, X3, Y2, Y2

#define SQUARE1(S) \
	VMULPD Y2, Y2, Y3 \
	VADDPD Y3, S, S

#define ABSMAX1(M) \
	VANDPD Y8, Y2, Y3 \
	VMAXPD M, Y3, M

// SUM_LANES adds the four lanes of S to the running sum X10, lane 0 first.
#define SUM_LANES(S, XS) \
	VADDSD       XS, X10, X10        \
	VPERMILPD    $1, XS, X4          \
	VADDSD       X4, X10, X10        \
	VEXTRACTF128 $1, S, X5           \
	VADDSD       X5, X10, X10        \
	VPERMILPD    $1, X5, X4          \
	VADDSD       X4, X10, X10

// func subRelaxPlaneAVX2(o, v, um, uz, up *float64, n1, n2 int, c *[4]float64, u *float64, mode int) (sum, maxAbs float64)
// o = v − A·u on rows 1 … n1−2, columns 1 … n2−2 (n1 ≥ 3, n2 ≥ 4). Mode
// bit 0 drops the c1 term; bit 1 also folds the stored rows into the norm
// partials: each row's left-to-right sum of squares added to sum in row
// order, and with bit 2 the largest absolute value (0 without it). Rows
// fold eight at a time, after the eighth of them is stored: two groups of
// four, one row per lane of Y6 and Y9 (lane maxima Y7 and Y12), in one
// column pass, so that two chains of additions are in flight — each
// lane's own chain is its row's sum, whose order is fixed. The
// coefficients in Y12–Y15 are reloaded after the fold. The rows after the
// last group of eight fold one at a time (sum X10, maximum X11).
TEXT ·subRelaxPlaneAVX2(SB), NOSPLIT, $0-96
	MOVQ c+56(FP), AX
	LOAD_COEFFS(AX)
	VPCMPEQQ Y8, Y8, Y8
	VPSRLQ   $1, Y8, Y8 // the |·| mask
	VXORPD   X10, X10, X10
	VXORPD   X11, X11, X11
	VXORPD   Y7, Y7, Y7
	MOVQ n2+48(FP), DX
	SHLQ $3, DX
	MOVQ o+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ um+16(FP), R8
	MOVQ uz+24(FP), R9
	MOVQ up+32(FP), R10
	ADDQ DX, DI
	ADDQ DX, SI
	ADDQ DX, R8
	ADDQ DX, R9
	ADDQ DX, R10
	MOVQ n1+40(FP), R13
	SUBQ $2, R13

subrow:
	LINES(u+64(FP), n1+40(FP), n2+48(FP), R13, subsecond, subone, sublined, subp, subpc, subf1, subf1c, subf2, subf2c)
	MOVQ n2+48(FP), BX
	SUBQ $5, BX
	MOVQ $1, AX
	MOVQ mode+72(FP), CX
	TESTQ $1, CX
	JNZ  subno1
	ROW(SUB_V(TREE), SUB_S(TREE_SD), subv, subvc, subt, subtc)
	JMP  subnorm

subno1:
	ROW(SUB_V(TREE_NO1), SUB_S(TREE_NO1_SD), subv1, subv1c, subt1, subt1c)

subnorm:
	MOVQ mode+72(FP), CX
	TESTQ $2, CX
	JZ   subnext
	MOVQ n1+40(FP), BX
	SUBQ $2, BX
	MOVQ BX, CX
	SUBQ R13, CX   // this row's index t among the interior rows
	ANDQ $-8, BX   // rows in groups of eight
	CMPQ CX, BX
	JGE  subrow1
	ANDQ $7, CX
	CMPQ CX, $7
	JNE  subnext   // the group is not complete yet
	LEAQ (DX)(DX*2), R15
	MOVQ DI, R12
	SUBQ R15, R12  // row t−3
	MOVQ R12, R11
	SUBQ DX, R11
	SUBQ R15, R11  // row t−7
	ADDQ $8, R11   // column 1
	ADDQ $8, R12
	MOVQ n2+48(FP), CX
	SUBQ $2, CX
	MOVQ CX, BX
	SHRQ $2, CX    // four-column blocks
	ANDQ $3, BX    // columns after them
	VXORPD Y6, Y6, Y6
	VXORPD Y9, Y9, Y9
	VXORPD Y12, Y12, Y12
	MOVQ mode+72(FP), AX
	TESTQ $4, AX
	JNZ  subm4c
	JMP  subs4c

subs4:
	COLS4(R11)
	SQUARES(Y6)
	COLS4(R12)
	SQUARES(Y9)
	ADDQ $32, R11
	ADDQ $32, R12
	DECQ CX

subs4c:
	TESTQ CX, CX
	JNZ  subs4
	JMP  subs1c

subs1:
	GATHER1(R11)
	SQUARE1(Y6)
	GATHER1(R12)
	SQUARE1(Y9)
	ADDQ $8, R11
	ADDQ $8, R12
	DECQ BX

subs1c:
	TESTQ BX, BX
	JNZ  subs1
	JMP  sublanes

subm4:
	COLS4(R11)
	ABSMAX(Y7)
	SQUARES(Y6)
	COLS4(R12)
	ABSMAX(Y12)
	SQUARES(Y9)
	ADDQ $32, R11
	ADDQ $32, R12
	DECQ CX

subm4c:
	TESTQ CX, CX
	JNZ  subm4
	JMP  subm1c

subm1:
	GATHER1(R11)
	SQUARE1(Y6)
	ABSMAX1(Y7)
	GATHER1(R12)
	SQUARE1(Y9)
	ABSMAX1(Y12)
	ADDQ $8, R11
	ADDQ $8, R12
	DECQ BX

subm1c:
	TESTQ BX, BX
	JNZ  subm1
	VMAXPD Y7, Y12, Y7

sublanes:
	SUM_LANES(Y6, X6)
	SUM_LANES(Y9, X9)
	MOVQ c+56(FP), AX
	LOAD_COEFFS(AX)
	JMP  subnext

subrow1:
	MOVQ n2+48(FP), BX
	DECQ BX
	MOVQ $1, AX
	VXORPD X9, X9, X9

subsq:
	VMOVSD (DI)(AX*8), X0
	VMULSD X0, X0, X1
	VADDSD X1, X9, X9
	VANDPD X8, X0, X0
	VMAXSD X11, X0, X11 // |r| > max ? |r| : max, as math.Abs(r) > maxAbs
	INCQ AX
	CMPQ AX, BX
	JLT  subsq
	VADDSD X9, X10, X10

subnext:
	ADDQ DX, DI
	ADDQ DX, SI
	ADDQ DX, R8
	ADDQ DX, R9
	ADDQ DX, R10
	DECQ R13
	JNZ  subrow
	VEXTRACTF128 $1, Y7, X4
	VMAXPD    X4, X7, X7
	VPERMILPD $1, X7, X4
	VMAXSD    X4, X7, X7
	VMAXSD    X11, X7, X11
	MOVQ mode+72(FP), CX
	TESTQ $4, CX
	JNZ  subdone
	VXORPD X11, X11, X11

subdone:
	VMOVSD X10, sum+80(FP)
	VMOVSD X11, maxAbs+88(FP)
	VZEROUPPER
	RET

// func addRelaxPlaneAVX2(o, z, w, rm, rz, rp *float64, n1, n2 int, c *[4]float64, u *float64, mode int)
// o = z + S·r (mode bit 1 clear) or o = w + (z + S·r) (set) on rows
// 1 … n1−2, columns 1 … n2−2 (n1 ≥ 3, n2 ≥ 4). Mode bit 0 drops the c3
// term.
TEXT ·addRelaxPlaneAVX2(SB), NOSPLIT, $8-88
	MOVQ c+64(FP), AX
	LOAD_COEFFS(AX)
	MOVQ n2+56(FP), DX
	SHLQ $3, DX
	MOVQ o+0(FP), DI
	MOVQ z+8(FP), SI
	MOVQ w+16(FP), R13
	MOVQ rm+24(FP), R8
	MOVQ rz+32(FP), R9
	MOVQ rp+40(FP), R10
	ADDQ DX, DI
	ADDQ DX, SI
	ADDQ DX, R13
	ADDQ DX, R8
	ADDQ DX, R9
	ADDQ DX, R10
	MOVQ n1+48(FP), AX
	SUBQ $2, AX
	MOVQ AX, rows-8(SP)

addrow:
	LINES(u+72(FP), n1+48(FP), n2+56(FP), rows-8(SP), addsecond, addone, addlined, addp, addpc, addf1, addf1c, addf2, addf2c)
	MOVQ n2+56(FP), BX
	SUBQ $5, BX
	MOVQ $1, AX
	MOVQ mode+80(FP), CX
	CMPQ CX, $1
	JEQ  addno3
	CMPQ CX, $2
	JEQ  addplus
	CMPQ CX, $3
	JEQ  addplusno3
	ROW(ADD_V(TREE), ADD_S(TREE_SD), addv, addvc, addt, addtc)
	JMP  addnext

addno3:
	ROW(ADD_V(TREE_NO3), ADD_S(TREE_NO3_SD), addv3, addv3c, addt3, addt3c)
	JMP  addnext

addplus:
	ROW(PLUS_V(TREE), PLUS_S(TREE_SD), plusv, plusvc, plust, plustc)
	JMP  addnext

addplusno3:
	ROW(PLUS_V(TREE_NO3), PLUS_S(TREE_NO3_SD), plusv3, plusv3c, plust3, plust3c)

addnext:
	ADDQ DX, DI
	ADDQ DX, SI
	ADDQ DX, R13
	ADDQ DX, R8
	ADDQ DX, R9
	ADDQ DX, R10
	DECQ rows-8(SP)
	JNZ  addrow
	VZEROUPPER
	RET

// func projectPlaneAVX2(o, rm, rz, rp *float64, fn1, fn2 int, c *[4]float64, u1, u2 *float64)
// The coarse plane o (extents fn1/2+1 × fn2/2+1) on rows and columns 1 …
// extent−2: o[j] = tree(2j) over fine row 2j of the three fine planes
// (fn1, fn2 ≥ 4). Four j per block: the tree runs at k … k+3 and at
// k+3 … k+6 (so the highest index read is k+7, inside the fine row), and
// the even-k lanes r[k], r[k+2] of the first and r[k+4], r[k+6] of the
// second are gathered into one contiguous store.
TEXT ·projectPlaneAVX2(SB), NOSPLIT, $0-72
	MOVQ c+48(FP), AX
	LOAD_COEFFS(AX)
	MOVQ fn2+40(FP), DX
	SHLQ $3, DX
	MOVQ fn2+40(FP), SI
	SHRQ $1, SI
	INCQ SI
	SHLQ $3, SI // coarse row stride in bytes
	MOVQ o+0(FP), DI
	ADDQ SI, DI
	MOVQ rm+8(FP), R8
	MOVQ rz+16(FP), R9
	MOVQ rp+24(FP), R10
	LEAQ (R8)(DX*2), R8
	LEAQ (R9)(DX*2), R9
	LEAQ (R10)(DX*2), R10
	MOVQ fn1+32(FP), R13
	SHRQ $1, R13
	DECQ R13

projrow:
	MOVQ u1+56(FP), R11
	MOVQ u2+64(FP), R12
	MOVQ fn2+40(FP), BX
	FILL_ROWS(projf1, projf1c, projf2, projf2c)
	MOVQ u1+56(FP), R11
	MOVQ SI, BX
	SHRQ $3, BX
	SUBQ $5, BX // last full block's first j
	MOVQ $2, AX // k = 2j
	MOVQ $1, CX // j
	JMP  projvc

projv:
	TREE(R9, R11, R12)
	VMOVAPD Y3, Y6           // r[k]   r[k+1] r[k+2] r[k+3]
	ADDQ    $3, AX
	TREE(R9, R11, R12)       // r[k+3] r[k+4] r[k+5] r[k+6]
	VSHUFPD $0xA, Y3, Y6, Y6 // r[k]   r[k+4] r[k+2] r[k+6]
	VPERMPD $0xD8, Y6, Y6    // r[k]   r[k+2] r[k+4] r[k+6]
	VMOVUPD Y6, (DI)(CX*8)
	ADDQ    $5, AX
	ADDQ    $4, CX

projvc:
	CMPQ CX, BX
	JLE  projv
	ADDQ $3, BX
	JMP  projtc

projt:
	TREE_SD(R9, R11, R12)
	VMOVSD X3, (DI)(CX*8)
	ADDQ   $2, AX
	INCQ   CX

projtc:
	CMPQ CX, BX
	JLE  projt
	LEAQ (R8)(DX*2), R8
	LEAQ (R9)(DX*2), R9
	LEAQ (R10)(DX*2), R10
	ADDQ SI, DI
	DECQ R13
	JNZ  projrow
	VZEROUPPER
	RET

// One interleaving block of interpolate: for l = AX … AX+3 of the coarse
// row R11, fine columns 2l+1 (CX = 2·AX) and 2l+2 get
//
//	o[2l+1] = cOdd·(b[l] + b[l+1])    o[2l+2] = cEven·b[l+1]
//
// (cEven in Y14, cOdd in Y15): odd (Y0) and even (Y1) products interleave
// through unpack + 128-bit permute into Y4 and Y5, which are stored.
#define INTERP_V \
	VMOVUPD    (R11)(AX*8), Y0  \
	VMOVUPD    8(R11)(AX*8), Y1 \
	VADDPD     Y1, Y0, Y0       \
	VMULPD     Y0, Y15, Y0      \
	VMULPD     Y1, Y14, Y1      \
	VUNPCKLPD  Y1, Y0, Y2       \
	VUNPCKHPD  Y1, Y0, Y3       \
	VPERM2F128 $0x20, Y3, Y2, Y4 \
	VPERM2F128 $0x31, Y3, Y2, Y5 \
	VMOVUPD    Y4, 8(DI)(CX*8)  \
	VMOVUPD    Y5, 40(DI)(CX*8) \
	ADDQ       $8, CX

#define INTERP_S \
	VMOVSD (R11)(AX*8), X0  \
	VMOVSD 8(R11)(AX*8), X1 \
	VADDSD X1, X0, X0       \
	VMULSD X0, X15, X4      \
	VMULSD X1, X14, X5      \
	VMOVSD X4, 8(DI)(CX*8)  \
	VMOVSD X5, 16(DI)(CX*8) \
	ADDQ   $2, CX

// func interpPlaneAVX2(o, zl, zh *float64, o3, cn1, cn2, m int, c *[4]float64, b *float64)
// o = Q·z on rows and columns m … extent−1−m (m ∈ {0, 1}) of one fine
// plane (extents 2cn1−2 × 2cn2−2, cn2 ≥ 4) from the coarse planes zl and zh
// it lies on or between (o3 = 1: between). A fine row on a coarse row reads
// it in place; otherwise its canonical pair or quadruple sum is staged in
// b, and the Q weight of its even and odd columns is c[o3+o2] and
// c[o3+o2+1].
TEXT ·interpPlaneAVX2(SB), NOSPLIT, $16-72
	MOVQ cn2+40(FP), DX
	SHLQ $3, DX
	LEAQ -16(DX)(DX*1), AX // fine row stride in bytes
	MOVQ AX, fs-8(SP)
	MOVQ m+48(FP), R13
	MOVQ cn1+32(FP), BX
	LEAQ -2(BX)(BX*1), BX
	SUBQ R13, BX
	MOVQ BX, end-16(SP)
	IMULQ R13, AX
	MOVQ o+0(FP), DI
	ADDQ AX, DI
	MOVQ zl+8(FP), R8
	MOVQ zh+16(FP), R9

interprow:
	MOVQ  R13, AX
	SHRQ  $1, AX
	IMULQ DX, AX
	LEAQ  (R8)(AX*1), R11 // zl, low coarse row
	LEAQ  (R9)(AX*1), R14 // zh, low coarse row
	MOVQ  R13, BX
	ANDQ  $1, BX          // o2
	MOVQ  BX, CX
	IMULQ DX, CX
	LEAQ  (R11)(CX*1), R12 // zl, high coarse row
	LEAQ  (R14)(CX*1), R15 // zh, high coarse row
	MOVQ  o3+24(FP), CX
	LEAQ  (BX)(CX*1), AX
	MOVQ  c+56(FP), R10
	VBROADCASTSD (R10)(AX*8), Y14
	VBROADCASTSD 8(R10)(AX*8), Y15
	LEAQ  (BX)(CX*2), AX // o2 + 2·o3
	CMPQ  AX, $0
	JEQ   interpsrc
	MOVQ  R12, R10
	CMPQ  AX, $1
	JEQ   interpsum2
	MOVQ  R14, R10
	CMPQ  AX, $2
	JEQ   interpsum2
	MOVQ  b+64(FP), CX
	MOVQ  cn2+40(FP), BX
	FILL(SUM4_AT(CX, R11, R12, R14, R15), interps4, interps4c)
	MOVQ  CX, R11
	JMP   interpsrc

interpsum2:
	MOVQ b+64(FP), CX
	MOVQ cn2+40(FP), BX
	FILL(SUM2_AT(CX, R11, R10), interps2, interps2c)
	MOVQ CX, R11

interpsrc:
	MOVQ cn2+40(FP), BX
	SUBQ $6, BX
	XORQ AX, AX
	XORQ CX, CX
	ROW(INTERP_V, INTERP_S, interpv, interpvc, interpt, interptc)
	MOVQ m+48(FP), AX
	TESTQ AX, AX
	JNZ  interpnext
	MOVQ cn2+40(FP), AX
	LEAQ (AX)(AX*1), CX
	VMOVSD (R11), X4
	VMULSD X4, X14, X4            // o[0] = cEven·b[0]
	VMOVSD -16(R11)(AX*8), X5
	VADDSD -8(R11)(AX*8), X5, X5
	VMULSD X5, X15, X5            // o[last] = cOdd·(b[cn2−2] + b[cn2−1])
	VMOVSD X4, (DI)
	VMOVSD X5, -24(DI)(CX*8)

interpnext:
	ADDQ fs-8(SP), DI
	INCQ R13
	CMPQ R13, end-16(SP)
	JLT  interprow
	VZEROUPPER
	RET
