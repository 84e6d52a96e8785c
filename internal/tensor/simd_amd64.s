//go:build amd64 && !purego

#include "textflag.h"

// Every kernel here vectorises across the output column index only: lane j
// performs exactly the scalar sequence of element j, one VMULPS then
// one VADDPS per multiply-add. No fused multiply-add anywhere — its
// single rounding would change every result the generic Go loops (and
// every golden and digest) produce.

// func axpyAVX2(dst, x []float32, a float32)
// dst[j] += a*x[j] for j < len(x). The caller guarantees
// len(dst) >= len(x).
TEXT ·axpyAVX2(SB), NOSPLIT, $0-52
	MOVQ         dst_base+0(FP), DI
	MOVQ         x_base+24(FP), SI
	MOVQ         x_len+32(FP), CX
	VBROADCASTSS a+48(FP), Y0
	CMPQ         CX, $32
	JLT          axpy8

	PCALIGN $32
axpyLoop32:
	VMULPS  (SI), Y0, Y1
	VMULPS  32(SI), Y0, Y2
	VMULPS  64(SI), Y0, Y3
	VMULPS  96(SI), Y0, Y4
	VADDPS  (DI), Y1, Y1
	VADDPS  32(DI), Y2, Y2
	VADDPS  64(DI), Y3, Y3
	VADDPS  96(DI), Y4, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	CMPQ    CX, $32
	JGE     axpyLoop32

axpy8:
	CMPQ CX, $8
	JLT  axpy1

	PCALIGN $32
axpyLoop8:
	VMULPS  (SI), Y0, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     axpyLoop8

axpy1:
	TESTQ CX, CX
	JZ    axpyDone

	PCALIGN $32
axpyLoop1:
	VMULSS (SI), X0, X1
	VADDSS (DI), X1, X1
	VMOVSS X1, (DI)
	ADDQ   $4, SI
	ADDQ   $4, DI
	DECQ   CX
	JNZ    axpyLoop1

axpyDone:
	VZEROUPPER
	RET

// func gemm2RowsAVX2(o0, o1, a0, a1, panel []float32, w int)
//
// The two-row micro-kernel of macroKernel. For every column
// j < len(o0) (a multiple of 8; len(o1) equal) and both rows r:
//
//	c = 0; for p < len(a0): c += a_r[p] * panel[p*w+j]; o_r[j] += c
//
// which is microKernel2x4's sequence per output element. Columns go
// 32 at a time (8 ymm accumulators), then 16, then 8. The caller
// guarantees len(a1) == len(a0) >= 1 and a panel of len(a0) rows of
// stride w >= len(o0).
TEXT ·gemm2RowsAVX2(SB), NOSPLIT, $0-128
	MOVQ o0_base+0(FP), DI
	MOVQ o0_len+8(FP), CX   // columns left
	MOVQ o1_base+24(FP), SI
	MOVQ a0_base+48(FP), R8
	MOVQ a0_len+56(FP), R12 // panel depth
	MOVQ a1_base+72(FP), R9
	MOVQ panel_base+96(FP), R10
	MOVQ w+120(FP), R11
	SHLQ $2, R11            // panel row stride in bytes
	CMPQ CX, $32
	JLT  gemmCols16

	PCALIGN $32
gemmCols32:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   R10, BX
	XORQ   DX, DX

	PCALIGN $32
gemmDepth32:
	VBROADCASTSS (R8)(DX*4), Y8
	VBROADCASTSS (R9)(DX*4), Y9
	VMOVUPS      (BX), Y10
	VMOVUPS      32(BX), Y11
	VMOVUPS      64(BX), Y12
	VMOVUPS      96(BX), Y13
	VMULPS       Y10, Y8, Y14
	VADDPS       Y14, Y0, Y0
	VMULPS       Y11, Y8, Y15
	VADDPS       Y15, Y1, Y1
	VMULPS       Y12, Y8, Y14
	VADDPS       Y14, Y2, Y2
	VMULPS       Y13, Y8, Y15
	VADDPS       Y15, Y3, Y3
	VMULPS       Y10, Y9, Y14
	VADDPS       Y14, Y4, Y4
	VMULPS       Y11, Y9, Y15
	VADDPS       Y15, Y5, Y5
	VMULPS       Y12, Y9, Y14
	VADDPS       Y14, Y6, Y6
	VMULPS       Y13, Y9, Y15
	VADDPS       Y15, Y7, Y7
	ADDQ         R11, BX
	INCQ         DX
	CMPQ         DX, R12
	JLT          gemmDepth32

	VADDPS  (DI), Y0, Y0
	VADDPS  32(DI), Y1, Y1
	VADDPS  64(DI), Y2, Y2
	VADDPS  96(DI), Y3, Y3
	VADDPS  (SI), Y4, Y4
	VADDPS  32(SI), Y5, Y5
	VADDPS  64(SI), Y6, Y6
	VADDPS  96(SI), Y7, Y7
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, (SI)
	VMOVUPS Y5, 32(SI)
	VMOVUPS Y6, 64(SI)
	VMOVUPS Y7, 96(SI)
	ADDQ    $128, DI
	ADDQ    $128, SI
	ADDQ    $128, R10
	SUBQ    $32, CX
	CMPQ    CX, $32
	JGE     gemmCols32

gemmCols16:
	CMPQ CX, $16
	JLT  gemmCols8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	MOVQ   R10, BX
	XORQ   DX, DX

	PCALIGN $32
gemmDepth16:
	VBROADCASTSS (R8)(DX*4), Y8
	VBROADCASTSS (R9)(DX*4), Y9
	VMOVUPS      (BX), Y10
	VMOVUPS      32(BX), Y11
	VMULPS       Y10, Y8, Y14
	VADDPS       Y14, Y0, Y0
	VMULPS       Y11, Y8, Y15
	VADDPS       Y15, Y1, Y1
	VMULPS       Y10, Y9, Y14
	VADDPS       Y14, Y4, Y4
	VMULPS       Y11, Y9, Y15
	VADDPS       Y15, Y5, Y5
	ADDQ         R11, BX
	INCQ         DX
	CMPQ         DX, R12
	JLT          gemmDepth16

	VADDPS  (DI), Y0, Y0
	VADDPS  32(DI), Y1, Y1
	VADDPS  (SI), Y4, Y4
	VADDPS  32(SI), Y5, Y5
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y4, (SI)
	VMOVUPS Y5, 32(SI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	ADDQ    $64, R10
	SUBQ    $16, CX

gemmCols8:
	CMPQ CX, $8
	JLT  gemmDone
	VXORPS Y0, Y0, Y0
	VXORPS Y4, Y4, Y4
	MOVQ   R10, BX
	XORQ   DX, DX

	PCALIGN $32
gemmDepth8:
	VBROADCASTSS (R8)(DX*4), Y8
	VBROADCASTSS (R9)(DX*4), Y9
	VMOVUPS      (BX), Y10
	VMULPS       Y10, Y8, Y14
	VADDPS       Y14, Y0, Y0
	VMULPS       Y10, Y9, Y15
	VADDPS       Y15, Y4, Y4
	ADDQ         R11, BX
	INCQ         DX
	CMPQ         DX, R12
	JLT          gemmDepth8

	VADDPS  (DI), Y0, Y0
	VADDPS  (SI), Y4, Y4
	VMOVUPS Y0, (DI)
	VMOVUPS Y4, (SI)

gemmDone:
	VZEROUPPER
	RET

// Lane masks for a last strip narrower than 8 columns: the 8 dwords
// starting (8-r)*4 bytes in have exactly their first r set.
DATA axpyNMask<>+0(SB)/8, $0xffffffffffffffff
DATA axpyNMask<>+8(SB)/8, $0xffffffffffffffff
DATA axpyNMask<>+16(SB)/8, $0xffffffffffffffff
DATA axpyNMask<>+24(SB)/8, $0xffffffffffffffff
DATA axpyNMask<>+32(SB)/8, $0
DATA axpyNMask<>+40(SB)/8, $0
DATA axpyNMask<>+48(SB)/8, $0
DATA axpyNMask<>+56(SB)/8, $0
GLOBL axpyNMask<>(SB), RODATA|NOPTR, $64

// The multiplier test of one reduction step of axpyNAVX2: a == 0 in
// float32 is "all bits but the sign are clear" (so both zeros and no
// NaN), and R13 holds 1 when zeros are to be multiplied like any other
// value. Leaves ZF set exactly when step p is to be skipped.
#define SKIPTEST \
	MOVL (SI), AX; \
	SHLL $1, AX;   \
	ORL  R13, AX

#define NEXTP(loop) \
	ADDQ R9, SI;  \
	ADDQ R11, BX; \
	DECQ DX;      \
	JNZ  loop

// func axpyNAVX2(dst, as []float32, sa int, b []float32, sb, kd int, skipZero bool)
//
// The strip-accumulate kernel behind AxpyN. For every column
// j < len(dst):
//
//	acc = dst[j]
//	for p < kd: a = as[p*sa]; if skipZero && a == 0 { continue }; acc += a * b[p*sb+j]
//	dst[j] = acc
//
// which is kd consecutive axpyAVX2 calls on the same dst with the
// loads and stores of dst between them removed: a strip of dst stays
// in ymm registers while p runs over the whole reduction. Strips are
// 64 columns (8 accumulators) while that many remain, then 32, 16, 8
// and one masked strip for the last len%8, whose dead lanes load as
// zero, are free to compute anything and are never stored. The caller
// guarantees kd >= 1, len(dst) >= 1 and that as and b cover every
// index above.
TEXT ·axpyNAVX2(SB), NOSPLIT, $0-97
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), CX  // columns left
	MOVQ    as_base+24(FP), R8
	MOVQ    sa+48(FP), R9
	MOVQ    b_base+56(FP), R10 // first row of b at the current strip
	MOVQ    sb+80(FP), R11
	MOVQ    kd+88(FP), R12
	MOVBLZX skipZero+96(FP), R13
	XORL    $1, R13
	SHLQ    $2, R9             // strides in bytes
	SHLQ    $2, R11
	CMPQ    CX, $64
	JLT     axpyNCols32

	PCALIGN $32
axpyNCols64:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	MOVQ    R8, SI
	MOVQ    R10, BX
	MOVQ    R12, DX

	PCALIGN $32
axpyNDepth64:
	SKIPTEST
	JZ           axpyNNext64
	VBROADCASTSS (SI), Y8
	VMULPS       (BX), Y8, Y9
	VMULPS       32(BX), Y8, Y10
	VMULPS       64(BX), Y8, Y11
	VMULPS       96(BX), Y8, Y12
	VADDPS       Y9, Y0, Y0
	VADDPS       Y10, Y1, Y1
	VADDPS       Y11, Y2, Y2
	VADDPS       Y12, Y3, Y3
	VMULPS       128(BX), Y8, Y9
	VMULPS       160(BX), Y8, Y10
	VMULPS       192(BX), Y8, Y11
	VMULPS       224(BX), Y8, Y12
	VADDPS       Y9, Y4, Y4
	VADDPS       Y10, Y5, Y5
	VADDPS       Y11, Y6, Y6
	VADDPS       Y12, Y7, Y7

axpyNNext64:
	NEXTP(axpyNDepth64)
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ    $256, DI
	ADDQ    $256, R10
	SUBQ    $64, CX
	CMPQ    CX, $64
	JGE     axpyNCols64

axpyNCols32:
	CMPQ    CX, $32
	JLT     axpyNCols16
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVQ    R8, SI
	MOVQ    R10, BX
	MOVQ    R12, DX

	PCALIGN $32
axpyNDepth32:
	SKIPTEST
	JZ           axpyNNext32
	VBROADCASTSS (SI), Y8
	VMULPS       (BX), Y8, Y9
	VMULPS       32(BX), Y8, Y10
	VMULPS       64(BX), Y8, Y11
	VMULPS       96(BX), Y8, Y12
	VADDPS       Y9, Y0, Y0
	VADDPS       Y10, Y1, Y1
	VADDPS       Y11, Y2, Y2
	VADDPS       Y12, Y3, Y3

axpyNNext32:
	NEXTP(axpyNDepth32)
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, R10
	SUBQ    $32, CX

axpyNCols16:
	CMPQ    CX, $16
	JLT     axpyNCols8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	MOVQ    R8, SI
	MOVQ    R10, BX
	MOVQ    R12, DX

	PCALIGN $32
axpyNDepth16:
	SKIPTEST
	JZ           axpyNNext16
	VBROADCASTSS (SI), Y8
	VMULPS       (BX), Y8, Y9
	VMULPS       32(BX), Y8, Y10
	VADDPS       Y9, Y0, Y0
	VADDPS       Y10, Y1, Y1

axpyNNext16:
	NEXTP(axpyNDepth16)
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, R10
	SUBQ    $16, CX

axpyNCols8:
	CMPQ    CX, $8
	JLT     axpyNTail
	VMOVUPS (DI), Y0
	MOVQ    R8, SI
	MOVQ    R10, BX
	MOVQ    R12, DX

	PCALIGN $32
axpyNDepth8:
	SKIPTEST
	JZ           axpyNNext8
	VBROADCASTSS (SI), Y8
	VMULPS       (BX), Y8, Y9
	VADDPS       Y9, Y0, Y0

axpyNNext8:
	NEXTP(axpyNDepth8)
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, R10
	SUBQ    $8, CX

axpyNTail:
	TESTQ      CX, CX
	JZ         axpyNDone
	LEAQ       axpyNMask<>+32(SB), AX
	SHLQ       $2, CX
	SUBQ       CX, AX
	VMOVDQU    (AX), Y13
	VMASKMOVPS (DI), Y13, Y0
	MOVQ       R8, SI
	MOVQ       R10, BX
	MOVQ       R12, DX

	PCALIGN $32
axpyNDepthTail:
	SKIPTEST
	JZ           axpyNNextTail
	VBROADCASTSS (SI), Y8
	VMASKMOVPS   (BX), Y13, Y9
	VMULPS       Y9, Y8, Y9
	VADDPS       Y9, Y0, Y0

axpyNNextTail:
	NEXTP(axpyNDepthTail)
	VMASKMOVPS Y0, Y13, (DI)

axpyNDone:
	VZEROUPPER
	RET

DATA adamOne<>+0(SB)/4, $0x3f800000 // 1.0
GLOBL adamOne<>(SB), RODATA|NOPTR, $4

// func adamAVX2(dst, w, g, m, v []float32, c AdamCoeffs, decay bool)
//
// One Adam update of eight elements at a time, each lane the sequence
// of adamGeneric:
//
//	m = b1*m + (1-b1)*g
//	v = b2*v + ((1-b2)*g)*g
//	u = (m/bc1) / (sqrt(v/bc2) + eps)
//	if decay { u = u + wd*w }
//	dst = w - lr*u
//
// VMULPS/VADDPS/VSUBPS/VDIVPS/VSQRTPS, each rounded (VSQRTPS is the
// correctly rounded float32 root, which float32(math.Sqrt(float64(x)))
// also is); the commutative operations keep the scalar loop's first
// operand. decay is WeightDecay > 0. dst may alias w. len(g) must be a
// multiple of 8 and every other slice at least that long.
TEXT ·adamAVX2(SB), NOSPLIT, $0-149
	MOVQ         dst_base+0(FP), DI
	MOVQ         w_base+24(FP), SI
	MOVQ         g_base+48(FP), DX
	MOVQ         g_len+56(FP), CX
	MOVQ         m_base+72(FP), R8
	MOVQ         v_base+96(FP), R9
	MOVBLZX      decay+148(FP), BX
	VBROADCASTSS c_Beta1+120(FP), Y0
	VBROADCASTSS c_Beta2+124(FP), Y2
	VBROADCASTSS c_Eps+128(FP), Y6
	VBROADCASTSS c_WeightDecay+132(FP), Y7
	VBROADCASTSS c_LR+136(FP), Y8
	VBROADCASTSS c_BC1+140(FP), Y4
	VBROADCASTSS c_BC2+144(FP), Y5
	VBROADCASTSS adamOne<>+0(SB), Y15
	VSUBPS       Y0, Y15, Y1            // 1-b1
	VSUBPS       Y2, Y15, Y3            // 1-b2
	SHRQ         $3, CX
	JZ           adamDone

	PCALIGN $32
adamLoop:
	VMOVUPS (DX), Y9         // g
	VMOVUPS (R8), Y10
	VMULPS  Y0, Y10, Y10     // b1*m
	VMULPS  Y9, Y1, Y11      // (1-b1)*g
	VADDPS  Y10, Y11, Y10
	VMOVUPS Y10, (R8)
	VMOVUPS (R9), Y12
	VMULPS  Y2, Y12, Y12     // b2*v
	VMULPS  Y9, Y3, Y13      // (1-b2)*g
	VMULPS  Y13, Y9, Y13     // ...*g
	VADDPS  Y12, Y13, Y12
	VMOVUPS Y12, (R9)
	VDIVPS  Y4, Y10, Y10     // mh
	VDIVPS  Y5, Y12, Y12     // vh
	VSQRTPS Y12, Y12
	VADDPS  Y6, Y12, Y12     // + eps
	VDIVPS  Y12, Y10, Y10    // u
	VMOVUPS (SI), Y13        // w
	TESTQ   BX, BX
	JZ      adamNoDecay
	VMULPS  Y7, Y13, Y14     // wd*w
	VADDPS  Y14, Y10, Y10

adamNoDecay:
	VMULPS  Y8, Y10, Y10     // lr*u
	VSUBPS  Y10, Y13, Y13
	VMOVUPS Y13, (DI)
	ADDQ    $32, DX
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     adamLoop

adamDone:
	VZEROUPPER
	RET
