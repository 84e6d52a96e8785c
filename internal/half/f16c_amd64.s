//go:build amd64 && !purego

#include "textflag.h"

DATA f16c<>+0(SB)/4, $0x7fffffff // everything but the sign
DATA f16c<>+4(SB)/4, $0x7f800000 // +Inf
DATA f16c<>+8(SB)/4, $0x80000000 // sign
DATA f16c<>+12(SB)/4, $0x7fc00000 // the quiet NaN FromFloat32 encodes
GLOBL f16c<>(SB), RODATA|NOPTR, $16

// CANONNAN replaces the NaN lanes of Y0 (those unordered with
// themselves) by sign|0x7fc00000 before the conversion: VCVTPS2PH
// would carry the top payload bits into the FP16 NaN, FromFloat32
// always produces sign|0x7e00.
#define CANONNAN \
	VCMPPS    $3, Y0, Y0, Y1 \
	VPAND     Y14, Y0, Y2    \
	VPOR      Y15, Y2, Y2    \
	VBLENDVPS Y1, Y2, Y0, Y0

// func encodeF16C(dst []uint16, src []float32)
// dst[i] = FromFloat32(src[i]) for i < len(src), eight at a time with
// VCVTPS2PH rounding to nearest even (imm 0, MXCSR not consulted).
// len(src) must be a multiple of 8 and len(dst) >= len(src).
TEXT ·encodeF16C(SB), NOSPLIT, $0-48
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	VBROADCASTSS f16c<>+8(SB), Y14
	VBROADCASTSS f16c<>+12(SB), Y15
	SHRQ         $3, CX
	JZ           encodeDone

	PCALIGN $32
encodeLoop:
	VMOVUPS (SI), Y0
	CANONNAN
	VCVTPS2PH $0, Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $16, DI
	DECQ    CX
	JNZ     encodeLoop

encodeDone:
	VZEROUPPER
	RET

// func quantizeF16C(x []float32) (overflow bool)
// x[i] = FromFloat32(x[i]).Float32() for every i, eight at a time;
// overflow reports whether a lane that was not ±Inf became ±Inf.
// len(x) must be a multiple of 8.
TEXT ·quantizeF16C(SB), NOSPLIT, $0-25
	MOVQ         x_base+0(FP), DI
	MOVQ         x_len+8(FP), CX
	VBROADCASTSS f16c<>+0(SB), Y12
	VBROADCASTSS f16c<>+4(SB), Y13
	VBROADCASTSS f16c<>+8(SB), Y14
	VBROADCASTSS f16c<>+12(SB), Y15
	VPXOR        Y11, Y11, Y11 // lanes that overflowed so far
	SHRQ         $3, CX
	JZ           quantizeDone

	PCALIGN $32
quantizeLoop:
	VMOVUPS   (DI), Y0
	CANONNAN
	VCVTPS2PH $0, Y0, X3
	VCVTPH2PS X3, Y4
	VMOVUPS   Y4, (DI)
	VPAND     Y12, Y4, Y5
	VPCMPEQD  Y13, Y5, Y5  // |out| == Inf
	VPAND     Y12, Y0, Y6
	VPCMPEQD  Y13, Y6, Y6  // |in| == Inf
	VPANDN    Y5, Y6, Y5   // out is Inf and in was not
	VPOR      Y5, Y11, Y11
	ADDQ      $32, DI
	DECQ      CX
	JNZ       quantizeLoop

quantizeDone:
	VPTEST Y11, Y11
	SETNE  overflow+24(FP)
	VZEROUPPER
	RET
