// Package tensor implements dense, row-major float32 tensors with
// goroutine-parallel kernels. It is the compute substrate of the
// BaGuaLu reproduction: all model math (GEMM, softmax, layernorm,
// reductions) is built on it, standing in for the SWDNN/CPE kernels
// used on the real SW26010-Pro hardware.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major float32 tensor. The zero value is not
// usable; construct tensors with New, Zeros, FromSlice, etc.
//
// Tensors are always contiguous: Strides is derived from Shape and
// reshapes never copy. This keeps the kernel code simple and mirrors
// the layout restrictions of the CPE DMA engines the paper targets.
type Tensor struct {
	Data  []float32
	Shape []int
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := numel(shape)
	return &Tensor{Data: make([]float32, n), Shape: append([]int(nil), shape...)}
}

// Zeros is an alias for New, provided for readability at call sites.
func Zeros(shape ...int) *Tensor { return New(shape...) }

// Ones returns a tensor filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// Full returns a tensor with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is
// used directly (not copied); len(data) must equal the shape's element
// count.
func FromSlice(data []float32, shape ...int) *Tensor {
	if len(data) != numel(shape) {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v", len(data), shape))
	}
	return &Tensor{Data: data, Shape: append([]int(nil), shape...)}
}

func numel(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Reshape returns a view of t with a new shape. One dimension may be
// -1, in which case it is inferred. The data is shared, not copied.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	shape = append([]int(nil), shape...)
	infer := -1
	known := 1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: Reshape with more than one -1 dimension")
			}
			infer = i
		} else {
			known *= d
		}
	}
	if infer >= 0 {
		if known == 0 || len(t.Data)%known != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension reshaping %v to %v", t.Shape, shape))
		}
		shape[infer] = len(t.Data) / known
		known *= shape[infer]
	}
	if known != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elements) to %v (%d elements)", t.Shape, len(t.Data), shape, known))
	}
	return &Tensor{Data: t.Data, Shape: shape}
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies src's data into t. Shapes must have equal element
// counts.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %v vs %v", t.Shape, src.Shape))
	}
	copy(t.Data, src.Data)
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index %v does not match rank of shape %v", idx, t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// Row returns a view of row i of a rank-2 tensor.
func (t *Tensor) Row(i int) []float32 {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: Row on tensor of shape %v", t.Shape))
	}
	c := t.Shape[1]
	return t.Data[i*c : (i+1)*c]
}

// RowsView returns a view of rows [lo, hi) of a rank-2 tensor. The
// data is shared, not copied.
func (t *Tensor) RowsView(lo, hi int) *Tensor {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: RowsView on tensor of shape %v", t.Shape))
	}
	if lo < 0 || hi < lo || hi > t.Shape[0] {
		panic(fmt.Sprintf("tensor: RowsView [%d,%d) out of range for shape %v", lo, hi, t.Shape))
	}
	c := t.Shape[1]
	return &Tensor{Data: t.Data[lo*c : hi*c : hi*c], Shape: []int{hi - lo, c}}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	clear(t.Data)
}

// AllClose reports whether all elements of t and o differ by at most
// tol. Shapes must match.
func (t *Tensor) AllClose(o *Tensor, tol float32) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.Data {
		d := t.Data[i] - o.Data[i]
		if d < -tol || d > tol {
			return false
		}
		if math.IsNaN(float64(t.Data[i])) != math.IsNaN(float64(o.Data[i])) {
			return false
		}
	}
	return true
}

// String renders small tensors fully and large ones as a summary.
func (t *Tensor) String() string {
	if len(t.Data) <= 16 {
		var b strings.Builder
		fmt.Fprintf(&b, "Tensor%v%v", t.Shape, t.Data)
		return b.String()
	}
	return fmt.Sprintf("Tensor%v[%d elements]", t.Shape, len(t.Data))
}
