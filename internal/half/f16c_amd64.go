//go:build amd64 && !purego

package half

import "bagualu/internal/cpufeat"

// useF16C selects the VCVTPS2PH/VCVTPH2PS kernels in f16c_amd64.s. It
// is set once from CPUID; FromFloat32 and the decode table remain the
// path elsewhere, the tail of every slice, and the oracle the
// bit-identity tests compare against.
var useF16C = cpufeat.F16C()

func encodeF16C(dst []uint16, src []float32)

func quantizeF16C(dst, src []float32) (overflow bool)

func decodeF16C(dst []float32, src []uint16)

// encodeVec encodes the leading multiple-of-8 elements of src into dst
// with the hardware converter and returns how many it covered (0
// without F16C); the caller encodes the rest one by one.
func encodeVec(dst []uint16, src []float32) int {
	if !useF16C {
		return 0
	}
	n := len(src) &^ 7
	encodeF16C(dst[:n], src[:n])
	return n
}

// quantizeVec writes the leading multiple-of-8 elements of src, rounded
// through FP16, to dst and returns how many it covered and whether any
// of them overflowed, like encodeVec.
func quantizeVec(dst, src []float32) (n int, overflow bool) {
	if !useF16C {
		return 0, false
	}
	n = len(src) &^ 7
	return n, quantizeF16C(dst[:n], src[:n])
}

// decodeVec decodes the leading multiple-of-8 elements of src into dst
// with the hardware converter and returns how many it covered, like
// encodeVec.
func decodeVec(dst []float32, src []uint16) int {
	if !useF16C {
		return 0
	}
	n := len(src) &^ 7
	decodeF16C(dst[:n], src[:n])
	return n
}
