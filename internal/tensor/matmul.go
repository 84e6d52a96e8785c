package tensor

import (
	"fmt"
	"sync"
)

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
// benchmark baseline for the tiled variant. Each output element is
// the dot product summed from zero in p order; b is transposed once
// so that eight of them, one per lane, advance together.
func MatMulTransBNaive(a, b *Tensor) *Tensor {
	m, k, n := mmTransBDims(a, b)
	out := Scratch(m, n)
	bT := transposed(b.Data, n, k)
	ParallelRows(m, func(s, e int) { matmulRows(out.Data, a.Data, *bT, s, e, k, n, false) })
	transPool.Put(bT)
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
	ParallelRows(m, func(s, e int) { matmulTransARows(out.Data, a.Data, b.Data, 0, k, m, n, s, e) })
	return out
}

// transAK is how many reduction steps matmulTransARows packs and runs
// at a time. Unlike tileK it is free to tune: the kernel adds straight
// into out, which round-trips through memory exactly between blocks,
// so every element sees the same additions in the same order at any
// depth.
const transAK = 128

// matmulTransARows accumulates rows [s,e) of a[pLo:pHi]ᵀ@b[pLo:pHi]
// into out for a [·,m], b [·,n], out [m,n]: out[i,j] += a[p,i]·b[p,j]
// in ascending p, zero a[p,i] skipped. One AxpyN per (row, 64-column
// strip) holds the strip in registers over a block of the reduction,
// its multipliers a column of a. The block of b's strip is packed
// first, as in the tiled kernel: in place its rows sit a whole row of
// b apart and alias into a fraction of L1.
func matmulTransARows(out, a, b []float32, pLo, pHi, m, n, s, e int) {
	bp := panelPool.Get().(*[]float32)
	panel := *bp
	for p0 := pLo; p0 < pHi; p0 += transAK {
		p1 := min(p0+transAK, pHi)
		for j0 := 0; j0 < n; j0 += tileN {
			j1 := min(j0+tileN, n)
			packB(panel, b, p0, p1, j0, j1, n)
			for i := s; i < e; i++ {
				AxpyN(out[i*n+j0:i*n+j1], a[p0*m+i:], m, panel, j1-j0, p1-p0, true)
			}
		}
	}
	panelPool.Put(bp)
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
	ParallelRows(m, func(s, e int) { matmulRows(out, a, b, s, e, k, n, true) })
}

// matmulRows accumulates rows [s,e) of a@b into the same rows of out:
// the unblocked kernel every naive path shares, each output row one
// AxpyN over the whole reduction. skipZero keeps the a == 0 skip of
// the a@b loops; the a@bᵀ paths, whose dot-product loops had none,
// pass b transposed and false.
func matmulRows(out, a, b []float32, s, e, k, n int, skipZero bool) {
	for i := s; i < e; i++ {
		AxpyN(out[i*n:(i+1)*n], a[i*k:(i+1)*k], 1, b, n, k, skipZero)
	}
}

// transposeInto writes the transpose of the r-by-c block at src (row
// stride ls) to dst (row stride ld): dst[j*ld+i] = src[i*ls+j]. Four
// source rows go at a time, so each destination row takes four
// adjacent stores, over at most 128 columns, so the destination lines
// they land in stay in L1 until the next four rows come round.
func transposeInto(dst []float32, ld int, src []float32, ls, r, c int) {
	const bs = 128
	for j0 := 0; j0 < c; j0 += bs {
		w := min(bs, c-j0)
		i := 0
		for ; i+4 <= r; i += 4 {
			r0 := src[i*ls+j0:][:w]
			r1 := src[(i+1)*ls+j0:][:w]
			r2 := src[(i+2)*ls+j0:][:w]
			r3 := src[(i+3)*ls+j0:][:w]
			for j := range r0 {
				d := dst[(j0+j)*ld+i:][:4]
				d[0], d[1], d[2], d[3] = r0[j], r1[j], r2[j], r3[j]
			}
		}
		for ; i < r; i++ {
			for j, v := range src[i*ls+j0:][:w] {
				dst[(j0+j)*ld+i] = v
			}
		}
	}
}

// transPool recycles the panels transposed fills.
var transPool = sync.Pool{New: func() any { return new([]float32) }}

// transposed returns b, an [n,k] matrix, as [k,n] in a pooled buffer:
// the layout in which the a@bᵀ naive paths can hand their dot products
// to matmulRows. Return the buffer with transPool.Put.
func transposed(b []float32, n, k int) *[]float32 {
	tp := transPool.Get().(*[]float32)
	if cap(*tp) < k*n {
		*tp = make([]float32, k*n)
	}
	*tp = (*tp)[:k*n]
	transposeInto(*tp, n, b, k, n, k)
	return tp
}

// axpyGeneric is Axpy in portable Go: the only path off amd64 or
// without AVX2, and the oracle the assembly is tested against.
func axpyGeneric(orow, brow []float32, av float32) {
	for j, bv := range brow {
		orow[j] += av * bv
	}
}

// axpyNGeneric is AxpyN as the loop of Axpy calls it stands for: the
// portable path and the oracle for the strip kernel.
func axpyNGeneric(dst, as []float32, sa int, b []float32, sb, kd int, skipZero bool) {
	for p := 0; p < kd; p++ {
		a := as[p*sa]
		if skipZero && a == 0 {
			continue
		}
		Axpy(dst, b[p*sb:p*sb+len(dst)], a)
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
			matmulRows(ob, ab, bb, 0, m, k, n, true)
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
			bT := transposed(bb, n, k)
			matmulRows(ob, ab, *bT, 0, m, k, n, false)
			transPool.Put(bT)
		}
	})
	return out
}
