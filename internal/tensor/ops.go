package tensor

import "fmt"

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

// AddInPlace accumulates b into a.
func AddInPlace(a, b *Tensor) {
	checkSame("AddInPlace", a, b)
	Parallel(len(a.Data), func(s, e int) {
		for i := s; i < e; i++ {
			a.Data[i] += b.Data[i]
		}
	})
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

// Dot returns the inner product of two equal-shaped tensors.
func Dot(a, b *Tensor) float32 {
	checkSame("Dot", a, b)
	var sum float64
	for i := range a.Data {
		sum += float64(a.Data[i]) * float64(b.Data[i])
	}
	return float32(sum)
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
