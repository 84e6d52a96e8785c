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

// func quantizeF16C(dst, src []float32) (overflow bool)
// dst[i] = FromFloat32(src[i]).Float32() for every i < len(src), eight
// at a time; overflow reports whether a lane that was not ±Inf became
// ±Inf. len(src) must be a multiple of 8 and len(dst) >= len(src); dst
// may be src.
TEXT ·quantizeF16C(SB), NOSPLIT, $0-49
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	VBROADCASTSS f16c<>+0(SB), Y12
	VBROADCASTSS f16c<>+4(SB), Y13
	VBROADCASTSS f16c<>+8(SB), Y14
	VBROADCASTSS f16c<>+12(SB), Y15
	VPXOR        Y11, Y11, Y11 // lanes that overflowed so far
	SHRQ         $3, CX
	JZ           quantizeDone

	PCALIGN $32
quantizeLoop:
	VMOVUPS   (SI), Y0
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
	ADDQ      $32, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       quantizeLoop

quantizeDone:
	VPTEST Y11, Y11
	SETNE  overflow+48(FP)
	VZEROUPPER
	RET

// CANONNANOUT replaces the NaN lanes of the converted Y0 by
// sign|0x7fc00000, as CANONNAN does before an encode: VCVTPH2PS keeps
// the FP16 payload, Float16.Float32 (and the decode table) drop it.
#define CANONNANOUT(r) \
	VCMPPS    $3, r, r, Y1 \
	VPAND     Y14, r, Y2   \
	VPOR      Y15, Y2, Y2  \
	VBLENDVPS Y1, Y2, r, r

// func decodeF16C(dst []float32, src []uint16)
// dst[i] = Float16(src[i]).Float32() for i < len(src), thirty-two and
// then eight at a time with VCVTPH2PS, which is exact for every FP16
// number. len(src) must be a multiple of 8 and len(dst) >= len(src).
TEXT ·decodeF16C(SB), NOSPLIT, $0-48
	MOVQ         dst_base+0(FP), DI
	MOVQ         src_base+24(FP), SI
	MOVQ         src_len+32(FP), CX
	VBROADCASTSS f16c<>+8(SB), Y14
	VBROADCASTSS f16c<>+12(SB), Y15
	CMPQ         CX, $32
	JLT          decode8

	PCALIGN $32
decodeLoop32:
	VCVTPH2PS (SI), Y0
	VCVTPH2PS 16(SI), Y3
	VCVTPH2PS 32(SI), Y4
	VCVTPH2PS 48(SI), Y5
	CANONNANOUT(Y0)
	CANONNANOUT(Y3)
	CANONNANOUT(Y4)
	CANONNANOUT(Y5)
	VMOVUPS   Y0, (DI)
	VMOVUPS   Y3, 32(DI)
	VMOVUPS   Y4, 64(DI)
	VMOVUPS   Y5, 96(DI)
	ADDQ      $64, SI
	ADDQ      $128, DI
	SUBQ      $32, CX
	CMPQ      CX, $32
	JGE       decodeLoop32

decode8:
	TESTQ CX, CX
	JZ    decodeDone

	PCALIGN $32
decodeLoop8:
	VCVTPH2PS (SI), Y0
	CANONNANOUT(Y0)
	VMOVUPS   Y0, (DI)
	ADDQ      $16, SI
	ADDQ      $32, DI
	SUBQ      $8, CX
	JNZ       decodeLoop8

decodeDone:
	VZEROUPPER
	RET
