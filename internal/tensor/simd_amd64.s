//go:build amd64 && !purego

#include "textflag.h"

// Both kernels vectorise across the output column index only: lane j
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
