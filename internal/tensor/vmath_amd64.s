//go:build amd64 && !purego

#include "textflag.h"

// Transcendental kernels: four float64 lanes, each executing exactly
// the instruction sequence the standard library executes per call, so
// every lane rounds as the scalar Go loop in nnops.go does.
//
//   - EXP4 is math.archExp's avxfma branch ($GOROOT/src/math/exp_amd64.s)
//     with PD for SD: the same multiplies, the same fused multiply-adds
//     in the same places, the same constants digit for digit.
//   - TANH4 is math.tanh (tanh.go, pure Go, compiled without FMA):
//     all three of its branches computed and blended by its compares.
//
// This is the one place in the tree where VFMADD appears, because the
// oracle is a library routine that uses it; the Go wrappers enable
// these kernels only when math.Exp takes that branch (AVX && FMA).

// Constants, each broadcast to four lanes so it can be a ymm memory
// operand. The linker aligns the table to 32 bytes.
#define C4(off, v) \
	DATA vm<>+(off+0)(SB)/8, v;  \
	DATA vm<>+(off+8)(SB)/8, v;  \
	DATA vm<>+(off+16)(SB)/8, v; \
	DATA vm<>+(off+24)(SB)/8, v

// exp_amd64.s: LOG2E, LN2U, LN2L, the 0.0625 reduction, exprodata.
C4(0, $1.4426950408889634073599246810018920)
C4(32, $0.69314718055966295651160180568695068359375)
C4(64, $0.28235290563031577122588448175013436025525412068e-12)
C4(96, $0.0625)
C4(128, $2.4801587301587301587e-5)
C4(160, $1.9841269841269841270e-4)
C4(192, $1.3888888888888888889e-3)
C4(224, $8.3333333333333333333e-3)
C4(256, $4.1666666666666666667e-2)
C4(288, $1.6666666666666666667e-1)
C4(320, $0.5)
C4(352, $1.0)
C4(384, $2.0)
C4(416, $1023) // exponent bias, int64
// softmaxExp's range split.
C4(448, $-708.0)
C4(480, $709.0)
C4(512, $-746.0)
// tanh.go: tanhP, tanhQ, the two branch thresholds, the clamp.
C4(544, $-9.64399179425052238628e-1)
C4(576, $-9.92877231001918586564e1)
C4(608, $-1.61468768441708447952e3)
C4(640, $1.12811678491632931402e2)
C4(672, $2.23548839060100448583e3)
C4(704, $4.84406305325125486048e3)
C4(736, $0.625)
C4(768, $44.014845965556527147994) // 0.5*MAXLOG, exact in float64
C4(800, $44.5)
C4(832, $0x7FFFFFFFFFFFFFFF)
C4(864, $0x8000000000000000)
// nnops.go: sqrt(2/pi), 0.044715, 3*0.044715 (folded exactly by the Go
// compiler, rounded once).
C4(896, $0.7978845608028654)
C4(928, $0.044715)
C4(960, $0.134145)
GLOBL vm<>(SB), RODATA|NOPTR, $992

#define LOG2E   vm<>+0(SB)
#define LN2U    vm<>+32(SB)
#define LN2L    vm<>+64(SB)
#define SIXTNTH vm<>+96(SB)
#define EXPC8   vm<>+128(SB)
#define EXPC7   vm<>+160(SB)
#define EXPC6   vm<>+192(SB)
#define EXPC5   vm<>+224(SB)
#define EXPC4   vm<>+256(SB)
#define EXPC3   vm<>+288(SB)
#define HALF    vm<>+320(SB)
#define ONE     vm<>+352(SB)
#define TWO     vm<>+384(SB)
#define BIAS    vm<>+416(SB)
#define EXPLO   vm<>+448(SB)
#define EXPHI   vm<>+480(SB)
#define EXPZERO vm<>+512(SB)
#define TANHP0  vm<>+544(SB)
#define TANHP1  vm<>+576(SB)
#define TANHP2  vm<>+608(SB)
#define TANHQ0  vm<>+640(SB)
#define TANHQ1  vm<>+672(SB)
#define TANHQ2  vm<>+704(SB)
#define TANHMID vm<>+736(SB)
#define TANHSAT vm<>+768(SB)
#define TANHCAP vm<>+800(SB)
#define ABSMASK vm<>+832(SB)
#define SGNMASK vm<>+864(SB)
#define GELUC   vm<>+896(SB)
#define GELUK   vm<>+928(SB)
#define GELUK3  vm<>+960(SB)

// VCMPPD predicates (ordered, quiet: a NaN lane compares false).
#define LE 0x12
#define GE 0x1D
#define GT 0x1E

// EXP4: x = exp(x) in every lane, for lanes in [-708, 709]: there
// k+1023 is in [2, 2046], so none of archExp's denormal / overflow /
// notFinite exits is taken and the straight line below is all it
// executes. t is a scratch ymm; kx/ky name one more as xmm and ymm.
// The conversion to int32 rounds by MXCSR (to nearest even), as
// CVTSD2SL does.
#define EXP4(x, t, kx, ky) \
	VMULPD       LOG2E, x, t;   \
	VCVTPD2DQY   t, kx;         \
	VCVTDQ2PD    kx, t;         \
	VFNMADD231PD LN2U, t, x;    \
	VFNMADD231PD LN2L, t, x;    \
	VMULPD       SIXTNTH, x, x; \
	VMOVUPD      EXPC8, t;      \
	VFMADD213PD  EXPC7, x, t;   \
	VFMADD213PD  EXPC6, x, t;   \
	VFMADD213PD  EXPC5, x, t;   \
	VFMADD213PD  EXPC4, x, t;   \
	VFMADD213PD  EXPC3, x, t;   \
	VFMADD213PD  HALF, x, t;    \
	VFMADD213PD  ONE, x, t;     \
	VMULPD       t, x, x;       \
	VADDPD       TWO, x, t;     \
	VMULPD       t, x, x;       \
	VADDPD       TWO, x, t;     \
	VMULPD       t, x, x;       \
	VADDPD       TWO, x, t;     \
	VMULPD       t, x, x;       \
	VADDPD       TWO, x, t;     \
	VFMADD213PD  ONE, t, x;     \
	VPMOVSXDQ    kx, ky;        \
	VPADDQ       BIAS, ky, ky;  \
	VPSLLQ       $52, ky, ky;   \
	VMULPD       ky, x, x

// TANH4: Y0 = tanh(Y9) in every lane; Y9 is preserved, Y1-Y7 and Y10
// are scratch. With z = |x|:
//
//	z > 0.5*MAXLOG: ±1
//	z >= 0.625:     ±(1 - 2/(exp(2z)+1))
//	otherwise:      x + x*s*((P0*s+P1)*s+P2)/(((s+Q0)*s+Q1)*s+Q2), s = x*x
//
// The polynomial is separate multiplies and adds in Go's evaluation
// order: the compiler emits no FMA for tanh.go. The clamp to 44.5
// keeps EXP4's argument in range (and turns a NaN lane into 44.5); it
// cannot be observed, because every clamped lane is then overridden by
// the saturated or, for NaN, the polynomial branch. A -0 lane comes
// out +0 where math.tanh returns x early; GELU only ever forms 1+t and
// t*t, so the sign of a zero t is dead.
#define TANH4 \
	VANDPD    ABSMASK, Y9, Y10;         \
	VMINPD    TANHCAP, Y10, Y0;         \
	VADDPD    Y0, Y0, Y0;               \
	EXP4(Y0, Y1, X2, Y2);               \
	VADDPD    ONE, Y0, Y0;              \
	VMOVUPD   TWO, Y1;                  \
	VDIVPD    Y0, Y1, Y0;               \
	VMOVUPD   ONE, Y1;                  \
	VSUBPD    Y0, Y1, Y0;               \
	VANDPD    SGNMASK, Y9, Y3;          \
	VXORPD    Y3, Y0, Y0;               \
	VMULPD    Y9, Y9, Y4;               \
	VMULPD    TANHP0, Y4, Y5;           \
	VADDPD    TANHP1, Y5, Y5;           \
	VMULPD    Y4, Y5, Y5;               \
	VADDPD    TANHP2, Y5, Y5;           \
	VADDPD    TANHQ0, Y4, Y6;           \
	VMULPD    Y4, Y6, Y6;               \
	VADDPD    TANHQ1, Y6, Y6;           \
	VMULPD    Y4, Y6, Y6;               \
	VADDPD    TANHQ2, Y6, Y6;           \
	VMULPD    Y4, Y9, Y7;               \
	VMULPD    Y5, Y7, Y7;               \
	VDIVPD    Y6, Y7, Y7;               \
	VADDPD    Y7, Y9, Y7;               \
	VCMPPD    $GE, TANHMID, Y10, Y1;    \
	VBLENDVPD Y1, Y0, Y7, Y7;           \
	VCMPPD    $GT, TANHSAT, Y10, Y1;    \
	VORPD     ONE, Y3, Y3;              \
	VBLENDVPD Y1, Y3, Y7, Y0

// GELUINNER: Y8 = float64 of the four float32 at (SI), Y9 =
// c*(xf + 0.044715*xf*xf*xf), the product taken left to right.
#define GELUINNER \
	VCVTPS2PD (SI), Y8;      \
	VMULPD    GELUK, Y8, Y9; \
	VMULPD    Y8, Y9, Y9;    \
	VMULPD    Y8, Y9, Y9;    \
	VADDPD    Y9, Y8, Y9;    \
	VMULPD    GELUC, Y9, Y9

// func softmaxExpAVX2(dst, src []float32, m float32, sum float64) (n int, out float64)
//
// The exp-and-sum pass of a softmax row, four elements at a time:
//
//	ev := exp(float64(src[j] - m)); dst[j] = float32(ev); sum += ev
//
// with the subtraction in float32 and the sum strictly sequential in
// j (lane 0, 1, 2, 3 — that VADDSD chain is the loop's floor). Lanes
// at or below -746 are exactly 0, which is what archExp's underflow
// exit returns there (-Inf included). The kernel stops before the
// first group that holds anything outside those two ranges — NaN, the
// subnormal-result band, an argument above 709 — or that has fewer
// than four elements, and returns how many elements it consumed and
// the running sum; the caller does that group with math.Exp and
// re-enters. len(dst) >= len(src).
TEXT ·softmaxExpAVX2(SB), NOSPLIT, $0-80
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	VBROADCASTSS m+48(FP), X15
	VMOVSD       sum+56(FP), X14
	XORQ         AX, AX
	SUBQ         $4, CX
	JLT          smxDone

	PCALIGN $32
smxLoop:
	VMOVUPS   (SI)(AX*4), X0
	VSUBPS    X15, X0, X0
	VCVTPS2PD X0, Y0
	VCMPPD    $GE, EXPLO, Y0, Y3
	VCMPPD    $LE, EXPHI, Y0, Y4
	VCMPPD    $LE, EXPZERO, Y0, Y5
	VANDPD    Y4, Y3, Y3
	VORPD     Y5, Y3, Y3
	VMOVMSKPD Y3, BX
	CMPL      BX, $15
	JNE       smxDone
	EXP4(Y0, Y1, X2, Y2)
	VANDNPD      Y0, Y5, Y0
	VCVTPD2PSY   Y0, X1
	VMOVUPS      X1, (DI)(AX*4)
	VADDSD       X0, X14, X14
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X14, X14
	VEXTRACTF128 $1, Y0, X1
	VADDSD       X1, X14, X14
	VPERMILPD    $1, X1, X1
	VADDSD       X1, X14, X14
	ADDQ         $4, AX
	CMPQ         AX, CX
	JLE          smxLoop

smxDone:
	MOVQ   AX, n+64(FP)
	VMOVSD X14, out+72(FP)
	VZEROUPPER
	RET

// func geluAVX2(dst, src []float32)
//
// dst[j] = float32(0.5*xf*(1 + tanh(c*(xf + 0.044715*xf*xf*xf)))),
// xf = float64(src[j]), for j < len(src), a multiple of 4;
// len(dst) >= len(src).
TEXT ·geluAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	SHRQ $2, CX
	JZ   geluDone

	PCALIGN $32
geluLoop:
	GELUINNER
	TANH4
	VMULPD     HALF, Y8, Y8
	VADDPD     ONE, Y0, Y0
	VMULPD     Y0, Y8, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (DI)
	ADDQ       $16, SI
	ADDQ       $16, DI
	DECQ       CX
	JNZ        geluLoop

geluDone:
	VZEROUPPER
	RET

// func geluGradAVX2(dst, src []float32)
//
// dst[j] = float32(0.5*(1+t) + 0.5*xf*(1-t*t)*dinner) with t the tanh
// above and dinner = c*(1 + 3*0.044715*xf*xf); same contract as
// geluAVX2.
TEXT ·geluGradAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	SHRQ $2, CX
	JZ   ggradDone

	PCALIGN $32
ggradLoop:
	GELUINNER
	TANH4
	VMULPD     GELUK3, Y8, Y1  // dinner
	VMULPD     Y8, Y1, Y1
	VADDPD     ONE, Y1, Y1
	VMULPD     GELUC, Y1, Y1
	VMULPD     Y0, Y0, Y2      // 1 - t*t
	VMOVUPD    ONE, Y3
	VSUBPD     Y2, Y3, Y2
	VMULPD     HALF, Y8, Y8    // 0.5*xf*(1-t*t)*dinner
	VMULPD     Y2, Y8, Y8
	VMULPD     Y1, Y8, Y8
	VADDPD     ONE, Y0, Y0     // 0.5*(1+t)
	VMULPD     HALF, Y0, Y0
	VADDPD     Y8, Y0, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (DI)
	ADDQ       $16, SI
	ADDQ       $16, DI
	DECQ       CX
	JNZ        ggradLoop

ggradDone:
	VZEROUPPER
	RET
