package tensor

import (
	"fmt"
	"math"
)

// checkSame panics unless a and b have equal shapes.
func checkSame(op string, a, b *Tensor) {
	if !a.SameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.Shape, b.Shape))
	}
}

// Add returns a + b elementwise.
func Add(a, b *Tensor) *Tensor {
	checkSame("Add", a, b)
	out := New(a.Shape...)
	Parallel(len(a.Data), func(s, e int) {
		for i := s; i < e; i++ {
			out.Data[i] = a.Data[i] + b.Data[i]
		}
	})
	return out
}

// Sub returns a - b elementwise.
func Sub(a, b *Tensor) *Tensor {
	checkSame("Sub", a, b)
	out := New(a.Shape...)
	Parallel(len(a.Data), func(s, e int) {
		for i := s; i < e; i++ {
			out.Data[i] = a.Data[i] - b.Data[i]
		}
	})
	return out
}

// Mul returns a * b elementwise (Hadamard product).
func Mul(a, b *Tensor) *Tensor {
	checkSame("Mul", a, b)
	out := New(a.Shape...)
	Parallel(len(a.Data), func(s, e int) {
		for i := s; i < e; i++ {
			out.Data[i] = a.Data[i] * b.Data[i]
		}
	})
	return out
}

// Div returns a / b elementwise.
func Div(a, b *Tensor) *Tensor {
	checkSame("Div", a, b)
	out := New(a.Shape...)
	Parallel(len(a.Data), func(s, e int) {
		for i := s; i < e; i++ {
			out.Data[i] = a.Data[i] / b.Data[i]
		}
	})
	return out
}

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Tensor) {
	checkSame("AddInPlace", a, b)
	Parallel(len(a.Data), func(s, e int) {
		for i := s; i < e; i++ {
			a.Data[i] += b.Data[i]
		}
	})
}

// Scale returns a*c.
func Scale(a *Tensor, c float32) *Tensor {
	out := New(a.Shape...)
	Parallel(len(a.Data), func(s, e int) {
		for i := s; i < e; i++ {
			out.Data[i] = a.Data[i] * c
		}
	})
	return out
}

// ScaleInPlace multiplies every element of a by c.
func ScaleInPlace(a *Tensor, c float32) {
	Parallel(len(a.Data), func(s, e int) {
		for i := s; i < e; i++ {
			a.Data[i] *= c
		}
	})
}

// AXPY computes y += alpha*x, the BLAS level-1 kernel used by the
// optimizers and gradient accumulation.
func AXPY(alpha float32, x, y *Tensor) {
	checkSame("AXPY", x, y)
	Parallel(len(x.Data), func(s, e int) {
		Axpy(y.Data[s:e], x.Data[s:e], alpha)
	})
}

// Neg returns -a.
func Neg(a *Tensor) *Tensor { return Scale(a, -1) }

// Sum returns the sum of all elements.
func Sum(a *Tensor) float32 {
	// Serial Kahan-style pairwise accumulation keeps results
	// deterministic across worker counts, which the distributed
	// gradient-sync tests rely on.
	var sum float64
	for _, v := range a.Data {
		sum += float64(v)
	}
	return float32(sum)
}

// Mean returns the arithmetic mean of all elements.
func Mean(a *Tensor) float32 {
	if len(a.Data) == 0 {
		return 0
	}
	return Sum(a) / float32(len(a.Data))
}

// ArgMaxRows returns, for a rank-2 tensor, the argmax of each row.
func ArgMaxRows(a *Tensor) []int {
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("tensor: ArgMaxRows on shape %v", a.Shape))
	}
	rows := a.Shape[0]
	out := make([]int, rows)
	ParallelWork(rows, a.Shape[1], func(s, e int) {
		for r := s; r < e; r++ {
			row := a.Row(r)
			best, bi := row[0], 0
			for i, v := range row[1:] {
				if v > best {
					best, bi = v, i+1
				}
			}
			out[r] = bi
		}
	})
	return out
}

// Dot returns the inner product of two equal-shaped tensors.
func Dot(a, b *Tensor) float32 {
	checkSame("Dot", a, b)
	var sum float64
	for i := range a.Data {
		sum += float64(a.Data[i]) * float64(b.Data[i])
	}
	return float32(sum)
}

// Norm2 returns the L2 norm of a.
func Norm2(a *Tensor) float32 {
	var sum float64
	for _, v := range a.Data {
		sum += float64(v) * float64(v)
	}
	return float32(math.Sqrt(sum))
}

// Apply returns f applied elementwise to a.
func Apply(a *Tensor, f func(float32) float32) *Tensor {
	out := New(a.Shape...)
	Parallel(len(a.Data), func(s, e int) {
		for i := s; i < e; i++ {
			out.Data[i] = f(a.Data[i])
		}
	})
	return out
}

// Exp returns e^a elementwise.
func Exp(a *Tensor) *Tensor {
	return Apply(a, func(v float32) float32 { return float32(math.Exp(float64(v))) })
}

// Log returns ln(a) elementwise.
func Log(a *Tensor) *Tensor {
	return Apply(a, func(v float32) float32 { return float32(math.Log(float64(v))) })
}

// SumRows returns the column-wise sum of a rank-2 tensor: out[j] =
// sum_i a[i,j], shape [cols].
func SumRows(a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("tensor: SumRows on shape %v", a.Shape))
	}
	r, c := a.Shape[0], a.Shape[1]
	out := New(c)
	for i := 0; i < r; i++ {
		row := a.Data[i*c : (i+1)*c]
		for j, v := range row {
			out.Data[j] += v
		}
	}
	return out
}

// SumCols returns the row-wise sum of a rank-2 tensor: out[i] =
// sum_j a[i,j], shape [rows].
func SumCols(a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("tensor: SumCols on shape %v", a.Shape))
	}
	r, c := a.Shape[0], a.Shape[1]
	out := New(r)
	ParallelWork(r, c, func(s, e int) {
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

// AddRowVector adds vector v (shape [cols]) to every row of a rank-2
// tensor in place; the broadcast pattern of bias addition.
func AddRowVector(a, v *Tensor) {
	if len(a.Shape) != 2 || len(v.Shape) != 1 || a.Shape[1] != v.Shape[0] {
		panic(fmt.Sprintf("tensor: AddRowVector shapes %v, %v", a.Shape, v.Shape))
	}
	r, c := a.Shape[0], a.Shape[1]
	ParallelWork(r, c, func(s, e int) {
		for i := s; i < e; i++ {
			row := a.Data[i*c : (i+1)*c]
			for j := range row {
				row[j] += v.Data[j]
			}
		}
	})
}
