//go:build !amd64 || purego

package tensor

// Axpy computes dst[j] += a*x[j] for every j < len(x). See the amd64
// version; without assembly kernels it is the generic loop.
func Axpy(dst, x []float32, a float32) { axpyGeneric(dst, x, a) }

// AxpyN accumulates kd scaled rows of b into dst. See the amd64
// version; without assembly kernels it is the loop of Axpy calls.
func AxpyN(dst, as []float32, sa int, b []float32, sb, kd int, skipZero bool) {
	axpyNGeneric(dst, as, sa, b, sb, kd, skipZero)
}

// gemm2Rows reports that no vector micro-kernel covered any column.
func gemm2Rows(out, a, panel []float32, i, j0, p0, kd, k, n, w int) int { return 0 }

// adamVec reports that no vector kernel covered any element.
func adamVec(dst, w, g, m, v []float32, c AdamCoeffs) int { return 0 }
