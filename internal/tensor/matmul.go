package tensor

import "fmt"

// Matrix-multiply kernels. These are the hot loops of the whole
// reproduction; they use register-blocked inner kernels over
// goroutine-parallel row panels, the same decomposition the paper
// applies across CPE clusters (64 compute cores per core group).
//
// Every public entry point (MatMul, MatMulInto, MatMulTransB,
// BatchMatMul) routes through a single dispatch decision: problems
// with at least gemmTiledMin multiply-adds go to the packed tiled
// kernel in matmul_tiled.go, smaller ones run the unblocked loop
// whose lower fixed overhead wins at small sizes.

// gemmTiledMin is the m*k*n product above which the tiled kernel is
// dispatched. Measured on amd64, the packed kernel already wins at
// 64x64x64 (~2^18 multiply-adds); below ~2^16 the packing cost
// outweighs the register-blocking gain and the naive kernel's zero
// setup cost wins.
const gemmTiledMin = 1 << 16

// useTiled reports whether the tiled kernel should handle an
// m-by-k-by-n GEMM.
func useTiled(m, k, n int) bool {
	return m*k*n >= gemmTiledMin
}

// MatMul returns a@b for a [m,k] and b [k,n]. Large problems are
// routed to the tiled kernel, small ones to the unblocked loop.
func MatMul(a, b *Tensor) *Tensor {
	m, k, n := mmDims("MatMul", a, b)
	out := Scratch(m, n)
	if useTiled(m, k, n) {
		matmulTiledInto(out.Data, a.Data, b.Data, m, k, n, true)
	} else {
		matmulInto(out.Data, a.Data, b.Data, m, k, n)
	}
	return out
}

// MatMulNaive returns a@b using the unblocked i-k-j kernel regardless
// of shape. It exists as the benchmark baseline the tiled kernel is
// measured against; production code should call MatMul, which
// dispatches to the best kernel for the shape.
func MatMulNaive(a, b *Tensor) *Tensor {
	m, k, n := mmDims("MatMulNaive", a, b)
	out := New(m, n)
	matmulInto(out.Data, a.Data, b.Data, m, k, n)
	return out
}

// MatMulInto computes out = a@b, reusing out's storage. out must have
// shape [m,n].
func MatMulInto(out, a, b *Tensor) {
	m, k, n := mmDims("MatMulInto", a, b)
	if len(out.Shape) != 2 || out.Shape[0] != m || out.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto out shape %v, want [%d %d]", out.Shape, m, n))
	}
	out.Zero()
	if useTiled(m, k, n) {
		matmulTiledInto(out.Data, a.Data, b.Data, m, k, n, true)
	} else {
		matmulInto(out.Data, a.Data, b.Data, m, k, n)
	}
}

// MatMulTransB returns a@bᵀ for a [m,k] and b [n,k]. This is the
// layout of the backward pass w.r.t. inputs when weights are stored
// [out,in]. Dispatches like MatMul.
func MatMulTransB(a, b *Tensor) *Tensor {
	m, k, n := mmTransBDims(a, b)
	if useTiled(m, k, n) {
		out := Scratch(m, n)
		matmulTransBTiledInto(out.Data, a.Data, b.Data, m, k, n, true)
		return out
	}
	return MatMulTransBNaive(a, b)
}

// MatMulTransBNaive is the unblocked a@bᵀ kernel, kept as the
// benchmark baseline for the tiled variant.
func MatMulTransBNaive(a, b *Tensor) *Tensor {
	m, k, n := mmTransBDims(a, b)
	out := Scratch(m, n)
	ParallelRows(m, func(s, e int) {
		for i := s; i < e; i++ {
			arow := a.Data[i*k : (i+1)*k]
			orow := out.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				brow := b.Data[j*k : (j+1)*k]
				var sum float32
				for p := 0; p < k; p++ {
					sum += arow[p] * brow[p]
				}
				orow[j] = sum
			}
		}
	})
	return out
}

// MatMulTransA returns aᵀ@b for a [k,m] and b [k,n]; the layout of
// the backward pass w.r.t. weights.
func MatMulTransA(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTransA shapes %v, %v", a.Shape, b.Shape))
	}
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := Scratch(m, n)
	// Parallelize over output rows (columns of a); each worker owns a
	// disjoint slice of out so no synchronization is needed.
	ParallelRows(m, func(s, e int) {
		for p := 0; p < k; p++ {
			arow := a.Data[p*m : (p+1)*m]
			brow := b.Data[p*n : (p+1)*n]
			for i := s; i < e; i++ {
				av := arow[i]
				if av == 0 {
					continue
				}
				Axpy(out.Data[i*n:(i+1)*n], brow, av)
			}
		}
	})
	return out
}

// MatVec returns a@x for a [m,k] and x [k].
func MatVec(a, x *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(x.Shape) != 1 || a.Shape[1] != x.Shape[0] {
		panic(fmt.Sprintf("tensor: MatVec shapes %v, %v", a.Shape, x.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	out := Scratch(m)
	Parallel(m, func(s, e int) {
		for i := s; i < e; i++ {
			row := a.Data[i*k : (i+1)*k]
			var sum float32
			for p := 0; p < k; p++ {
				sum += row[p] * x.Data[p]
			}
			out.Data[i] = sum
		}
	})
	return out
}

func mmDims(op string, a, b *Tensor) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: %s requires rank-2 tensors, got %v, %v", op, a.Shape, b.Shape))
	}
	if a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v, %v", op, a.Shape, b.Shape))
	}
	return a.Shape[0], a.Shape[1], b.Shape[1]
}

func mmTransBDims(a, b *Tensor) (m, k, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[1] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransB shapes %v, %v", a.Shape, b.Shape))
	}
	return a.Shape[0], a.Shape[1], b.Shape[0]
}

// matmulInto accumulates a@b into out (out must be zeroed by the
// caller). i-k-j loop order streams b rows through the cache; the
// row-panel parallelism gives each worker a disjoint out region.
func matmulInto(out, a, b []float32, m, k, n int) {
	ParallelRows(m, func(s, e int) { matmulRows(out, a, b, s, e, k, n) })
}

// matmulRows accumulates rows [s,e) of a@b into the same rows of out:
// the unblocked kernel every naive path shares, one Axpy per non-zero
// element of a.
func matmulRows(out, a, b []float32, s, e, k, n int) {
	for i := s; i < e; i++ {
		arow := a[i*k : (i+1)*k]
		orow := out[i*n : (i+1)*n]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			Axpy(orow, b[p*n:(p+1)*n], av)
		}
	}
}

// axpyGeneric is Axpy in portable Go: the only path off amd64 or
// without AVX2, and the oracle the assembly is tested against.
func axpyGeneric(orow, brow []float32, av float32) {
	for j, bv := range brow {
		orow[j] += av * bv
	}
}

// BatchMatMul multiplies two rank-3 tensors batch-wise: a [B,m,k] @
// b [B,k,n] -> [B,m,n]. Used by multi-head attention. Each batch
// element dispatches independently: large per-batch problems run the
// tiled kernel serially inside the per-batch worker.
func BatchMatMul(a, b *Tensor) *Tensor {
	if len(a.Shape) != 3 || len(b.Shape) != 3 || a.Shape[0] != b.Shape[0] || a.Shape[2] != b.Shape[1] {
		panic(fmt.Sprintf("tensor: BatchMatMul shapes %v, %v", a.Shape, b.Shape))
	}
	bs, m, k, n := a.Shape[0], a.Shape[1], a.Shape[2], b.Shape[2]
	out := Scratch(bs, m, n)
	tiled := useTiled(m, k, n)
	ParallelRows(bs, func(s, e int) {
		for bi := s; bi < e; bi++ {
			ab := a.Data[bi*m*k : (bi+1)*m*k]
			bb := b.Data[bi*k*n : (bi+1)*k*n]
			ob := out.Data[bi*m*n : (bi+1)*m*n]
			if tiled {
				matmulTiledInto(ob, ab, bb, m, k, n, false)
				continue
			}
			matmulRows(ob, ab, bb, 0, m, k, n)
		}
	})
	return out
}

// BatchMatMulTransB multiplies a [B,m,k] @ bᵀ [B,n,k] -> [B,m,n];
// the Q@Kᵀ pattern in attention. Dispatches per batch element like
// BatchMatMul.
func BatchMatMulTransB(a, b *Tensor) *Tensor {
	if len(a.Shape) != 3 || len(b.Shape) != 3 || a.Shape[0] != b.Shape[0] || a.Shape[2] != b.Shape[2] {
		panic(fmt.Sprintf("tensor: BatchMatMulTransB shapes %v, %v", a.Shape, b.Shape))
	}
	bs, m, k, n := a.Shape[0], a.Shape[1], a.Shape[2], b.Shape[1]
	out := Scratch(bs, m, n)
	tiled := useTiled(m, k, n)
	ParallelRows(bs, func(s, e int) {
		for bi := s; bi < e; bi++ {
			ab := a.Data[bi*m*k : (bi+1)*m*k]
			bb := b.Data[bi*n*k : (bi+1)*n*k]
			ob := out.Data[bi*m*n : (bi+1)*m*n]
			if tiled {
				matmulTransBTiledInto(ob, ab, bb, m, k, n, false)
				continue
			}
			for i := 0; i < m; i++ {
				arow := ab[i*k : (i+1)*k]
				orow := ob[i*n : (i+1)*n]
				for j := 0; j < n; j++ {
					brow := bb[j*k : (j+1)*k]
					var sum float32
					for p := 0; p < k; p++ {
						sum += arow[p] * brow[p]
					}
					orow[j] = sum
				}
			}
		}
	})
	return out
}
