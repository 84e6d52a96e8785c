package tensor

import (
	"fmt"
	"math"
)

// Neural-network-specific kernels: numerically stable softmax family,
// layer normalization, and the activation functions used by the
// transformer/MoE stack.

// SoftmaxRows applies a numerically stable softmax to every row of a
// rank-2 tensor and returns the result.
func SoftmaxRows(a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("tensor: SoftmaxRows on shape %v", a.Shape))
	}
	r, c := a.Shape[0], a.Shape[1]
	out := New(r, c)
	ParallelWork(r, c, func(s, e int) {
		for i := s; i < e; i++ {
			SoftmaxRow(out.Data[i*c:(i+1)*c], a.Data[i*c:(i+1)*c])
		}
	})
	return out
}

// SoftmaxRow writes the numerically stable softmax of src to dst (the
// two may be the same slice) and returns the row's maximum m and
// sum = Σ exp(src[j]-m), accumulated in float64 in index order — the
// pieces of its log-sum-exp. It is the one softmax in the tree:
// SoftmaxRows, the KV-cache attention of internal/nn and the router
// z-loss all call it, which is why a decode row and the same row of a
// batched forward agree bitwise.
func SoftmaxRow(dst, src []float32) (m float32, sum float64) {
	m, sum = expRow(dst, src)
	inv := float32(1 / sum)
	for j := range dst[:len(src)] {
		dst[j] *= inv
	}
	return m, sum
}

// expRow is SoftmaxRow before normalisation: dst[j] =
// float32(exp(src[j]-m)).
func expRow(dst, src []float32) (m float32, sum float64) {
	m = src[0]
	for _, v := range src[1:] {
		if v > m {
			m = v
		}
	}
	return m, softmaxExp(dst, src, m)
}

// softmaxExpScalar is the exp-and-sum pass in portable Go: the body on
// machines without the vector kernel, its tail and out-of-range path
// where there is one, and the oracle it is tested against. It
// continues a running sum so the kernel can hand over mid-row.
func softmaxExpScalar(dst, src []float32, m float32, sum float64) float64 {
	for j, v := range src {
		ev := math.Exp(float64(v - m))
		dst[j] = float32(ev)
		sum += ev
	}
	return sum
}

// LayerNormRows normalizes every row to zero mean and unit variance,
// then applies elementwise gain and bias. gamma and beta have shape
// [cols]; eps guards the variance.
func LayerNormRows(a, gamma, beta *Tensor, eps float32) *Tensor {
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("tensor: LayerNormRows on shape %v", a.Shape))
	}
	r, c := a.Shape[0], a.Shape[1]
	if gamma.Len() != c || beta.Len() != c {
		panic(fmt.Sprintf("tensor: LayerNormRows gamma/beta length %d/%d, want %d", gamma.Len(), beta.Len(), c))
	}
	out := New(r, c)
	ParallelWork(r, c, func(s, e int) {
		for i := s; i < e; i++ {
			src := a.Data[i*c : (i+1)*c]
			dst := out.Data[i*c : (i+1)*c]
			var mean float64
			for _, v := range src {
				mean += float64(v)
			}
			mean /= float64(c)
			var varsum float64
			for _, v := range src {
				d := float64(v) - mean
				varsum += d * d
			}
			inv := 1 / math.Sqrt(varsum/float64(c)+float64(eps))
			for j, v := range src {
				dst[j] = float32((float64(v)-mean)*inv)*gamma.Data[j] + beta.Data[j]
			}
		}
	})
	return out
}

// GELU applies the Gaussian error linear unit (tanh approximation)
// elementwise.
func GELU(a *Tensor) *Tensor {
	out := New(a.Shape...)
	Parallel(len(a.Data), func(s, e int) { gelu(out.Data[s:e], a.Data[s:e]) })
	return out
}

// geluScalar and geluGradScalar are the portable definitions: tail,
// fallback and oracle of the vector kernels, which perform the same
// float64 operations in the same order.
func geluScalar(x float32) float32 {
	const c = 0.7978845608028654 // sqrt(2/pi)
	xf := float64(x)
	return float32(0.5 * xf * (1 + math.Tanh(c*(xf+0.044715*xf*xf*xf))))
}

// GELUGrad returns d/dx GELU(x) evaluated elementwise at a.
func GELUGrad(a *Tensor) *Tensor {
	out := New(a.Shape...)
	Parallel(len(a.Data), func(s, e int) { geluGrad(out.Data[s:e], a.Data[s:e]) })
	return out
}

func geluGradScalar(x float32) float32 {
	const c = 0.7978845608028654
	xf := float64(x)
	inner := c * (xf + 0.044715*xf*xf*xf)
	t := math.Tanh(inner)
	dinner := c * (1 + 3*0.044715*xf*xf)
	return float32(0.5*(1+t) + 0.5*xf*(1-t*t)*dinner)
}

// ReLU applies max(0,x) elementwise.
func ReLU(a *Tensor) *Tensor {
	return Apply(a, func(x float32) float32 {
		if x > 0 {
			return x
		}
		return 0
	})
}

// Sigmoid applies the logistic function elementwise.
func Sigmoid(a *Tensor) *Tensor {
	return Apply(a, func(x float32) float32 {
		return float32(1 / (1 + math.Exp(-float64(x))))
	})
}

// Tanh applies tanh elementwise.
func Tanh(a *Tensor) *Tensor {
	return Apply(a, func(x float32) float32 {
		return float32(math.Tanh(float64(x)))
	})
}
