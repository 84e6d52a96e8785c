//go:build amd64 && !purego

package tensor

import "bagualu/internal/cpufeat"

// useAVX2 selects the assembly kernels in simd_amd64.s. It is set once
// from CPUID; the generic Go loops remain the path for CPUs without
// AVX2 and the oracle the bit-identity tests compare against.
var useAVX2 = cpufeat.AVX2()

func axpyAVX2(dst, x []float32, a float32)

func gemm2RowsAVX2(o0, o1, a0, a1, panel []float32, w int)

// Axpy computes dst[j] += a*x[j] for every j < len(x), one float32
// multiply and one float32 add per element (never fused), so the
// result does not depend on which path runs. It is the inner loop of
// every GEMM variant whose reduction index is the outer loop; callers
// that skip zero multipliers keep that test themselves.
func Axpy(dst, x []float32, a float32) {
	if useAVX2 {
		axpyAVX2(dst[:len(x)], x, a)
		return
	}
	axpyGeneric(dst, x, a)
}

// gemm2Rows runs the vector micro-kernel over the leading columns of
// rows i and i+1 of a macro-tile and returns how many columns it
// covered: the largest multiple of 8 within w, or 0 without AVX2.
// macroKernel finishes the rest with the scalar kernels.
func gemm2Rows(out, a, panel []float32, i, j0, p0, kd, k, n, w int) int {
	wv := w &^ 7
	if !useAVX2 || wv == 0 {
		return 0
	}
	r0, r1 := i*n+j0, (i+1)*n+j0
	c0, c1 := i*k+p0, (i+1)*k+p0
	gemm2RowsAVX2(out[r0:r0+wv], out[r1:r1+wv], a[c0:c0+kd], a[c1:c1+kd], panel[:(kd-1)*w+wv], w)
	return wv
}
