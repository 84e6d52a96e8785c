//go:build !amd64 || purego

package tensor

// Axpy computes dst[j] += a*x[j] for every j < len(x). See the amd64
// version; without assembly kernels it is the generic loop.
func Axpy(dst, x []float32, a float32) { axpyGeneric(dst, x, a) }

// gemm2Rows reports that no vector micro-kernel covered any column.
func gemm2Rows(out, a, panel []float32, i, j0, p0, kd, k, n, w int) int { return 0 }
