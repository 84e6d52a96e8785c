//go:build !amd64 || purego

package tensor

// Without the assembly kernels the scalar loops are the whole
// implementation. See the amd64 versions.

func softmaxExp(dst, src []float32, m float32) float64 {
	return softmaxExpScalar(dst[:len(src)], src, m, 0)
}

func gelu(dst, src []float32) {
	for j, x := range src {
		dst[j] = geluScalar(x)
	}
}

func geluGrad(dst, src []float32) {
	for j, x := range src {
		dst[j] = geluGradScalar(x)
	}
}
