package nn

import (
	"fmt"
	"math"

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

// div returns a / b elementwise.
func div(a, b *tensor.Tensor) *tensor.Tensor {
	checkSame("div", a, b)
	out := tensor.New(a.Shape...)
	tensor.Parallel(len(a.Data), func(s, e int) {
		for i := s; i < e; i++ {
			out.Data[i] = a.Data[i] / b.Data[i]
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

// apply returns f applied elementwise to a.
func apply(a *tensor.Tensor, f func(float32) float32) *tensor.Tensor {
	out := tensor.New(a.Shape...)
	tensor.Parallel(len(a.Data), func(s, e int) {
		for i := s; i < e; i++ {
			out.Data[i] = f(a.Data[i])
		}
	})
	return out
}

// exp returns e^a elementwise.
func exp(a *tensor.Tensor) *tensor.Tensor {
	return apply(a, func(v float32) float32 { return float32(math.Exp(float64(v))) })
}

// log returns ln(a) elementwise.
func log(a *tensor.Tensor) *tensor.Tensor {
	return apply(a, func(v float32) float32 { return float32(math.Log(float64(v))) })
}

// sumCols returns the row-wise sum of a rank-2 tensor: out[i] =
// sum_j a[i,j], shape [rows].
func sumCols(a *tensor.Tensor) *tensor.Tensor {
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("sumCols on shape %v", a.Shape))
	}
	r, c := a.Shape[0], a.Shape[1]
	out := tensor.New(r)
	tensor.ParallelWork(r, c, func(s, e int) {
		for i := s; i < e; i++ {
			var sum float64
			for _, v := range a.Data[i*c : (i+1)*c] {
				sum += float64(v)
			}
			out.Data[i] = float32(sum)
		}
	})
	return out
}

// relu applies max(0,x) elementwise.
func relu(a *tensor.Tensor) *tensor.Tensor {
	return apply(a, func(x float32) float32 {
		if x > 0 {
			return x
		}
		return 0
	})
}

// sigmoid applies the logistic function elementwise.
func sigmoid(a *tensor.Tensor) *tensor.Tensor {
	return apply(a, func(x float32) float32 {
		return float32(1 / (1 + math.Exp(-float64(x))))
	})
}

// tanh applies tanh elementwise.
func tanh(a *tensor.Tensor) *tensor.Tensor {
	return apply(a, func(x float32) float32 {
		return float32(math.Tanh(float64(x)))
	})
}
