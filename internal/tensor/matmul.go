package tensor

import (
	"fmt"
	"sync"
)

// Matrix products, the hot loops of the whole reproduction. Every a@b
// and a@bᵀ entry point validates its shapes, allocates its output and
// reduces to one descriptor, gemm: rows off[g]..off[g+1] of a [m,k]
// times group g's weight into the same rows of out [m,n]. A plain
// product is one group, a batched one a group per batch element at
// uniform offsets, a grouped one (the dropless MoE layer's expert FFNs)
// the caller's groups. Two drivers run a descriptor:
//
//   - the tiled driver (matmul_tiled.go): goroutine-parallel row
//     macro-tiles that never span a group, against a packed panel of B
//     — the decomposition the paper applies across CPE clusters;
//   - the strip driver: each output row one AxpyN over the whole
//     reduction, b transposed once first for a@bᵀ.
//
// Which one runs is part of the numerical contract (matmul_tiled.go),
// decided where each caller always decided it: on the product's total
// multiply-adds for plain and grouped calls (so a skewed expert batch
// rides the tiled kernel whole), on one element's for batched calls,
// never for MatMulTiled and MatMulNaive, which pin their driver. aᵀ@b
// is a third loop, matmulTransARows, shared by MatMulTransA and
// GroupedMatMulTransAInto.

// gemmTiledMin is the m*k*n product above which the tiled kernel is
// dispatched. Measured on amd64, the packed kernel already wins at
// 64x64x64 (~2^18 multiply-adds); below ~2^16 the packing cost
// outweighs the register-blocking gain and the strips' zero setup cost
// wins.
const gemmTiledMin = 1 << 16

// useTiled reports whether the tiled kernel should handle an
// m-by-k-by-n GEMM.
func useTiled(m, k, n int) bool {
	return m*k*n >= gemmTiledMin
}

// MatMul returns a@b for a [m,k] and b [k,n].
func MatMul(a, b *Tensor) *Tensor { return matmul("MatMul", a, b, false, byTotal) }

// MatMulNaive returns a@b on the strip driver whatever the shape. Its
// rows do not depend on how many there are, which is what
// nn.InferLinear's batch invariance rests on, and it is the baseline
// the tiled kernel is benchmarked against.
func MatMulNaive(a, b *Tensor) *Tensor { return matmul("MatMulNaive", a, b, false, stripsOnly) }

// MatMulTiled returns a@b on the tiled driver whatever the shape. It is
// numerically equivalent to MatMul up to float reassociation.
func MatMulTiled(a, b *Tensor) *Tensor { return matmul("MatMulTiled", a, b, false, tiledOnly) }

// MatMulTransB returns a@bᵀ for a [m,k] and b [n,k]: the backward pass
// w.r.t. inputs when weights are stored [out,in]. The tiled driver
// packs b transposed, so no transposed weight is materialized.
func MatMulTransB(a, b *Tensor) *Tensor { return matmul("MatMulTransB", a, b, true, byTotal) }

// BatchMatMul multiplies two rank-3 tensors batch-wise: a [B,m,k] @
// b [B,k,n] -> [B,m,n]. Used by multi-head attention; the driver is
// chosen on one element's m*k*n.
func BatchMatMul(a, b *Tensor) *Tensor { return batchMatMul("BatchMatMul", a, b, false) }

// BatchMatMulTransB multiplies a [B,m,k] @ bᵀ [B,n,k] -> [B,m,n]; the
// Q@Kᵀ pattern in attention.
func BatchMatMulTransB(a, b *Tensor) *Tensor { return batchMatMul("BatchMatMulTransB", a, b, true) }

// GroupedMatMulInto computes out[off[g]:off[g+1]] = a[off[g]:off[g+1]] @ bs[g]
// for every group g. a is [m,k], each bs[g] is [k,n], out is [m,n]
// (zeroed here); off has len(bs)+1 monotone entries from 0 to m, and
// empty groups are allowed. Group g's rows are bitwise what MatMul
// would return for that block alone if it decided on the group total.
func GroupedMatMulInto(out, a *Tensor, off []int, bs []*Tensor) {
	groupedInto("GroupedMatMulInto", out, a, off, bs, false)
}

// GroupedMatMulTransBInto computes out[rows g] = a[rows g] @ bs[g]ᵀ
// for every group: the expert FFN's backward w.r.t. inputs. Each bs[g]
// is [n,k]; otherwise as GroupedMatMulInto.
func GroupedMatMulTransBInto(out, a *Tensor, off []int, bs []*Tensor) {
	groupedInto("GroupedMatMulTransBInto", out, a, off, bs, true)
}

// MatMulTransA returns aᵀ@b for a [k,m] and b [k,n]; the layout of
// the backward pass w.r.t. weights.
func MatMulTransA(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 || a.Shape[0] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTransA shapes %v, %v", a.Shape, b.Shape))
	}
	k, m, n := a.Shape[0], a.Shape[1], b.Shape[1]
	out := New(m, n)
	// Parallelize over output rows (columns of a); each worker owns a
	// disjoint slice of out so no synchronization is needed.
	ParallelRows(m, func(s, e int) { matmulTransARows(out.Data, a.Data, b.Data, 0, k, m, n, s, e) })
	return out
}

// GroupedMatMulTransAInto accumulates outs[g] += a[rows g]ᵀ @ b[rows g]
// for every group: the grouped weight-gradient kernel. a is [m,din],
// b is [m,n], each outs[g] is [din,n] and is accumulated in place
// (callers pass the parameter-gradient tensors directly). The
// streaming p-ascending accumulation order matches MatMulTransA, so
// when outs[g] starts zeroed the result is bitwise identical to
// AddInPlace(outs[g], MatMulTransA(block_g, dblock_g)).
func GroupedMatMulTransAInto(outs []*Tensor, a, b *Tensor, off []int) {
	const op = "GroupedMatMulTransAInto"
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("tensor: %s activation %v is not rank-2", op, a.Shape))
	}
	m := a.Shape[0]
	checkOffsets(op, off, len(outs), m)
	if len(b.Shape) != 2 || b.Shape[0] != m {
		panic(fmt.Sprintf("tensor: %s b %v, want [%d,_]", op, b.Shape, m))
	}
	din, n := a.Shape[1], b.Shape[1]
	for _, o := range outs {
		if len(o.Shape) != 2 || o.Shape[0] != din || o.Shape[1] != n {
			panic(fmt.Sprintf("tensor: %s out %v, want [%d %d]", op, o.Shape, din, n))
		}
	}
	// Parallelize over columns of a (rows of every outs[g]); each
	// worker owns a disjoint row range of all outputs, streaming every
	// group's activation rows once.
	ParallelRows(din, func(s, e int) {
		for g, o := range outs {
			matmulTransARows(o.Data, a.Data, b.Data, off[g], off[g+1], din, n, s, e)
		}
	})
}

// matmul runs a plain product: one group.
func matmul(op string, a, b *Tensor, transB bool, kn kernel) *Tensor {
	m, k, n := gemmDims(op, a, transB, b)
	out := New(m, n)
	newGemm(out.Data, a.Data, k, n, transB, kn).group(m, b.Data).run()
	return out
}

// batchMatMul runs a batched product: one group per batch element.
func batchMatMul(op string, a, b *Tensor, transB bool) *Tensor {
	inner, outer := 1, 2 // b's dimensions holding k and n
	if transB {
		inner, outer = 2, 1
	}
	if len(a.Shape) != 3 || len(b.Shape) != 3 || a.Shape[0] != b.Shape[0] || a.Shape[2] != b.Shape[inner] {
		panic(fmt.Sprintf("tensor: %s shapes %v, %v", op, a.Shape, b.Shape))
	}
	batch, m, k, n := a.Shape[0], a.Shape[1], a.Shape[2], b.Shape[outer]
	out := New(batch, m, n)
	g := newGemm(out.Data, a.Data, k, n, transB, byGroup)
	for i := 0; i < batch; i++ {
		g.group(m, b.Data[i*k*n:(i+1)*k*n])
	}
	g.run()
	return out
}

// groupedInto runs a grouped product into the caller's out.
func groupedInto(op string, out, a *Tensor, off []int, bs []*Tensor, transB bool) {
	m, k, n := gemmDims(op, a, transB, bs...)
	checkOffsets(op, off, len(bs), m)
	if len(out.Shape) != 2 || out.Shape[0] != m || out.Shape[1] != n {
		panic(fmt.Sprintf("tensor: %s out %v, want [%d %d]", op, out.Shape, m, n))
	}
	out.Zero()
	g := newGemm(out.Data, a.Data, k, n, transB, byTotal)
	for i, b := range bs {
		g.group(off[i+1]-off[i], b.Data)
	}
	g.run()
}

// gemmDims validates a rank-2 a [m,k] against weights that are each
// [k,n], or [n,k] when transB, every one as wide as the first, and
// returns m, k and n (0 without weights).
func gemmDims(op string, a *Tensor, transB bool, bs ...*Tensor) (m, k, n int) {
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("tensor: %s activation %v is not rank-2", op, a.Shape))
	}
	m, k = a.Shape[0], a.Shape[1]
	inner, outer := 0, 1
	if transB {
		inner, outer = 1, 0
	}
	for g, b := range bs {
		if len(b.Shape) != 2 || b.Shape[inner] != k {
			panic(fmt.Sprintf("tensor: %s weight %d is %v, want %d along dimension %d to match activation %v", op, g, b.Shape, k, inner, a.Shape))
		}
		if g == 0 {
			n = b.Shape[outer]
		} else if b.Shape[outer] != n {
			panic(fmt.Sprintf("tensor: %s weight %d is %v but weight 0 is %v: every group's output width must match", op, g, b.Shape, bs[0].Shape))
		}
	}
	return m, k, n
}

// checkOffsets validates a grouped call's row offsets.
func checkOffsets(op string, off []int, groups, m int) {
	if len(off) != groups+1 {
		panic(fmt.Sprintf("tensor: %s offsets len %d, want %d groups+1", op, len(off), groups+1))
	}
	if off[0] != 0 || off[groups] != m {
		panic(fmt.Sprintf("tensor: %s offsets [%d..%d] do not span %d rows", op, off[0], off[groups], m))
	}
	for g := 0; g < groups; g++ {
		if off[g+1] < off[g] {
			panic(fmt.Sprintf("tensor: %s offsets not monotone at group %d", op, g))
		}
	}
}

// gemm describes one product for the two drivers: rows off[g]..off[g+1]
// of a [m,k] times bs[g] — [k,n], or [n,k] when transB — into the same
// rows of out [m,n], which holds zeros. Descriptors are pooled with
// their scratch and the bound drivers, so a product allocates nothing
// but its output.
type gemm struct {
	out, a []float32
	off    []int
	bs     [][]float32
	k, n   int
	transB bool
	kernel kernel

	units            []gUnit   // the tiled driver's row macro-tiles
	bT               []float32 // the strip driver's transposed ᵀB weights
	tiledFn, stripFn func(lo, hi int)
}

// kernel is how a descriptor picks its driver: tiled when the product's
// total multiply-adds clear gemmTiledMin, or one group's (the batched
// calls, whose groups are equal), or pinned.
type kernel uint8

const (
	byTotal kernel = iota
	byGroup
	tiledOnly
	stripsOnly
)

var gemmPool = sync.Pool{New: func() any {
	g := new(gemm)
	g.tiledFn, g.stripFn = g.tiledRange, g.stripRows
	return g
}}

// newGemm takes a descriptor with no groups yet from the pool.
func newGemm(out, a []float32, k, n int, transB bool, kn kernel) *gemm {
	g := gemmPool.Get().(*gemm)
	g.out, g.a, g.k, g.n, g.transB, g.kernel = out, a, k, n, transB, kn
	g.off, g.bs = append(g.off[:0], 0), g.bs[:0]
	return g
}

// group appends the next rows rows of a, multiplied by weight b.
func (g *gemm) group(rows int, b []float32) *gemm {
	g.off = append(g.off, g.off[len(g.off)-1]+rows)
	g.bs = append(g.bs, b)
	return g
}

// run computes the product and returns the descriptor to the pool.
func (g *gemm) run() {
	if m := g.off[len(g.off)-1]; m > 0 {
		if g.kernel == byGroup {
			m = g.off[1]
		}
		if g.kernel == tiledOnly || g.kernel != stripsOnly && useTiled(m, g.k, g.n) {
			g.tiled()
		} else {
			g.strips()
		}
	}
	g.out, g.a = nil, nil
	clear(g.bs)
	gemmPool.Put(g)
}

// strips is the strip driver: row-parallel matmulRows, each worker's
// rows split at group boundaries.
func (g *gemm) strips() {
	if g.transB {
		g.transposed()
	}
	ParallelRows(g.off[len(g.off)-1], g.stripFn)
}

func (g *gemm) stripRows(s, e int) {
	for gi := groupOf(g.off, s); s < e; gi++ {
		hi := min(e, g.off[gi+1])
		matmulRows(g.out, g.a, g.bs[gi], s, hi, g.k, g.n, !g.transB)
		s = max(s, hi)
	}
}

// transposed replaces every ᵀB weight that has rows to multiply with
// its transpose, [k,n], in the descriptor's scratch: the layout in
// which matmulRows runs a@bᵀ's dot products eight outputs at a time.
func (g *gemm) transposed() {
	kn, need := g.k*g.n, 0
	for gi := range g.bs {
		if g.off[gi+1] > g.off[gi] {
			need += kn
		}
	}
	if cap(g.bT) < need {
		g.bT = make([]float32, need)
	}
	bT := g.bT[:need]
	for gi, b := range g.bs {
		if g.off[gi+1] > g.off[gi] {
			transposeInto(bT, g.n, b, g.k, g.n, g.k)
			g.bs[gi], bT = bT[:kn], bT[kn:]
		}
	}
}

// matmulRows accumulates rows [s,e) of a@b into the same rows of out,
// each output row one AxpyN over the whole reduction. skipZero keeps
// the a == 0 skip of the a@b loops; a@bᵀ, whose dot-product loops had
// none, passes b transposed and false.
func matmulRows(out, a, b []float32, s, e, k, n int, skipZero bool) {
	for i := s; i < e; i++ {
		AxpyN(out[i*n:(i+1)*n], a[i*k:(i+1)*k], 1, b, n, k, skipZero)
	}
}

// groupOf returns the group containing flat row i (off is monotone;
// empty groups are skipped forward).
func groupOf(off []int, i int) int {
	g := 0
	for i >= off[g+1] {
		g++
	}
	return g
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
