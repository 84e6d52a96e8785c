package nn

import (
	"fmt"

	"bagualu/internal/tensor"
)

// The tensor operations only the autograd oracle (autograd_test.go)
// uses; the layers' own kernels live in the tensor package.

// checkSame panics unless a and b have the same shape.
func checkSame(op string, a, b *tensor.Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("%s: shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}

// sub returns a - b elementwise.
func sub(a, b *tensor.Tensor) *tensor.Tensor {
	checkSame("sub", a, b)
	out := tensor.New(a.Shape...)
	tensor.Parallel(len(a.Data), func(s, e int) {
		for i := s; i < e; i++ {
			out.Data[i] = a.Data[i] - b.Data[i]
		}
	})
	return out
}

// scale returns a*c.
func scale(a *tensor.Tensor, c float32) *tensor.Tensor {
	out := tensor.New(a.Shape...)
	tensor.Parallel(len(a.Data), func(s, e int) {
		for i := s; i < e; i++ {
			out.Data[i] = a.Data[i] * c
		}
	})
	return out
}

// neg returns -a.
func neg(a *tensor.Tensor) *tensor.Tensor { return scale(a, -1) }

// sum returns the sum of all elements.
func sum(a *tensor.Tensor) float32 {
	// Serial float64 accumulation: the result does not depend on the
	// worker count.
	var sum float64
	for _, v := range a.Data {
		sum += float64(v)
	}
	return float32(sum)
}

// mean returns the arithmetic mean of all elements.
func mean(a *tensor.Tensor) float32 {
	if len(a.Data) == 0 {
		return 0
	}
	return sum(a) / float32(len(a.Data))
}
