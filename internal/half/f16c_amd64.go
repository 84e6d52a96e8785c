//go:build amd64 && !purego

package half

import "bagualu/internal/cpufeat"

// useF16C selects the VCVTPS2PH/VCVTPH2PS kernels in f16c_amd64.s. It
// is set once from CPUID; FromFloat32 and the decode table remain the
// path elsewhere, the tail of every slice, and the oracle the
// bit-identity tests compare against.
var useF16C = cpufeat.F16C()

func encodeF16C(dst []uint16, src []float32)

func quantizeF16C(x []float32) (overflow bool)

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

// quantizeVec rounds the leading multiple-of-8 elements of x through
// FP16 in place and returns how many it covered and whether any of
// them overflowed, like encodeVec.
func quantizeVec(x []float32) (n int, overflow bool) {
	if !useF16C {
		return 0, false
	}
	n = len(x) &^ 7
	return n, quantizeF16C(x[:n])
}
