//go:build amd64 && !purego

package tensor

import "bagualu/internal/cpufeat"

// useAVX2 selects the assembly kernels in simd_amd64.s. It is set once
// from CPUID; the generic Go loops remain the path for CPUs without
// AVX2 and the oracle the bit-identity tests compare against.
var useAVX2 = cpufeat.AVX2()

func axpyAVX2(dst, x []float32, a float32)

func gemm2RowsAVX2(o0, o1, a0, a1, panel []float32, w int)

func axpyNAVX2(dst, as []float32, sa int, b []float32, sb, kd int, skipZero bool)

func adamAVX2(dst, w, g, m, v []float32, c AdamCoeffs, decay bool)

// Axpy computes dst[j] += a*x[j] for every j < len(x), one float32
// multiply and one float32 add per element (never fused), so the
// result does not depend on which path runs. GEMM loops go through
// AxpyN, which is a run of these with dst kept in registers.
func Axpy(dst, x []float32, a float32) {
	if useAVX2 {
		axpyAVX2(dst[:len(x)], x, a)
		return
	}
	axpyGeneric(dst, x, a)
}

// AxpyN accumulates kd scaled rows of b into dst: for every
// j < len(dst)
//
//	acc = dst[j]
//	for p < kd: a = as[p*sa]; if skipZero && a == 0 { continue }; acc += a * b[p*sb+j]
//	dst[j] = acc
//
// exactly what kd consecutive Axpy(dst, b[p*sb:], as[p*sa]) calls
// leave in dst (axpyNGeneric is that loop), but dst is loaded and
// stored once instead of once per p. It is the inner kernel of every
// GEMM loop outside the paired rows of the tiled kernel: p strictly
// ascending and, where the scalar loop it replaced had it, the a == 0
// skip are part of the numerical contract; how callers block p or cut
// dst into strips is not, because dst round-trips through memory
// exactly.
func AxpyN(dst, as []float32, sa int, b []float32, sb, kd int, skipZero bool) {
	if !useAVX2 || kd <= 0 || len(dst) == 0 {
		axpyNGeneric(dst, as, sa, b, sb, kd, skipZero)
		return
	}
	// The assembly checks no bounds: touch the last element of each
	// operand here.
	_, _ = as[(kd-1)*sa], b[(kd-1)*sb+len(dst)-1]
	axpyNAVX2(dst, as, sa, b, sb, kd, skipZero)
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

// adamVec runs the Adam kernel over the leading multiple-of-8 elements
// and returns how many it covered (0 without AVX2); adamGeneric, whose
// sequence every lane repeats, finishes the rest.
func adamVec(dst, w, g, m, v []float32, c AdamCoeffs) int {
	n := len(g) &^ 7
	if !useAVX2 || n == 0 {
		return 0
	}
	adamAVX2(dst[:n], w[:n], g[:n], m[:n], v[:n], c, c.WeightDecay > 0)
	return n
}
