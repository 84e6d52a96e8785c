//go:build amd64 && !purego

package tensor

import "bagualu/internal/cpufeat"

// useVMath selects the transcendental kernels in vmath_amd64.s. They
// transcribe the branch math.Exp takes when the standard library's
// useFMA (AVX && FMA) is set, so they run exactly then; the scalar
// loops in nnops.go are the path everywhere else and the oracle the
// bit-identity tests compare against.
var useVMath = cpufeat.AVX2() && cpufeat.FMA()

func softmaxExpAVX2(dst, src []float32, m float32, sum float64) (n int, out float64)

func geluAVX2(dst, src []float32)

func geluGradAVX2(dst, src []float32)

// softmaxExp is the exp-and-sum pass of a softmax row: dst[j] =
// float32(ev), sum += ev for ev = exp(float64(src[j]-m)), j ascending.
// The kernel takes groups of four until one holds an argument outside
// its ranges or fewer than four elements are left; that group goes
// through the scalar loop, which the lanes match bit for bit, and the
// kernel is re-entered behind it.
func softmaxExp(dst, src []float32, m float32) (sum float64) {
	dst = dst[:len(src)]
	if !useVMath {
		return softmaxExpScalar(dst, src, m, 0)
	}
	for j := 0; j < len(src); {
		n, s := softmaxExpAVX2(dst[j:], src[j:], m, sum)
		j += n
		e := min(j+4, len(src))
		sum = softmaxExpScalar(dst[j:e], src[j:e], m, s)
		j = e
	}
	return sum
}

// lanes4 runs kernel over the leading multiple of four elements and
// scalar, which the lanes match bit for bit, over the rest (all of
// them without the kernels).
func lanes4(dst, src []float32, kernel func(dst, src []float32), scalar func(float32) float32) {
	n := 0
	if useVMath {
		n = len(src) &^ 3
		kernel(dst[:n], src[:n])
	}
	for j := n; j < len(src); j++ {
		dst[j] = scalar(src[j])
	}
}

// gelu writes GELU(src[j]) to dst[j], geluGrad GELU'(src[j]).
func gelu(dst, src []float32)     { lanes4(dst, src, geluAVX2, geluScalar) }
func geluGrad(dst, src []float32) { lanes4(dst, src, geluGradAVX2, geluGradScalar) }
