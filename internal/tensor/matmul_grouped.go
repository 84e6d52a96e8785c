package tensor

import (
	"fmt"
	"sync"
)

// Grouped GEMM: one batched call multiplying contiguous row blocks of
// a single activation matrix against per-block weight matrices. This
// is the expert-FFN kernel of the dropless MoE layer — every expert's
// token block on a rank becomes one group, so the tiled-vs-naive
// dispatch is decided on the *group's* total multiply-adds. A skewed
// batch (one hot expert, many cold one-token experts) therefore runs
// entirely through the tiled kernel instead of degrading to the naive
// loop once per cold expert.
//
// Blocking is identical to matmul_tiled.go with one change: row
// macro-tiles never span a group boundary, so each group's output is
// bitwise identical to running the standalone tiled kernel on that
// block alone. Within a worker the packed B panel is reused across
// every row tile of the same group and lazily repacked only when the
// worker crosses into the next group's tiles — the per-(j,p) panel
// packing is shared across experts rather than paid once per expert
// per call.
//
// All groups share the inner (k) and output (n) dimensions; only the
// row counts differ. off has len(bs)+1 entries with off[g]..off[g+1]
// delimiting group g's rows; empty groups are allowed.

// gUnit is one group-aligned row macro-tile: rows [i0,i1) of the flat
// activation matrix, all belonging to group g.
type gUnit struct{ g, i0, i1 int }

// unitPool recycles the per-call unit slices so steady-state grouped
// calls allocate nothing.
var unitPool = sync.Pool{New: func() any { return new([]gUnit) }}

// groupedDims validates a grouped call and returns the total rows.
func groupedDims(op string, a *Tensor, off []int, groups int) int {
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("tensor: %s activation must be rank-2, got %v", op, a.Shape))
	}
	if len(off) != groups+1 {
		panic(fmt.Sprintf("tensor: %s offsets len %d, want %d groups+1", op, len(off), groups+1))
	}
	if off[0] != 0 || off[groups] != a.Shape[0] {
		panic(fmt.Sprintf("tensor: %s offsets [%d..%d] do not span %d rows", op, off[0], off[groups], a.Shape[0]))
	}
	for g := 0; g < groups; g++ {
		if off[g+1] < off[g] {
			panic(fmt.Sprintf("tensor: %s offsets not monotone at group %d", op, g))
		}
	}
	return a.Shape[0]
}

// groupUnits splits each group's rows into tileM-row units, appended
// in group order so a worker's contiguous unit range touches each
// group at most once per (j,p) panel.
func groupUnits(off []int, groups int) *[]gUnit {
	up := unitPool.Get().(*[]gUnit)
	units := (*up)[:0]
	for g := 0; g < groups; g++ {
		for i0 := off[g]; i0 < off[g+1]; i0 += tileM {
			units = append(units, gUnit{g, i0, min(i0+tileM, off[g+1])})
		}
	}
	*up = units
	return up
}

// GroupedUsesTiled reports whether a grouped GEMM over totalRows rows
// dispatches to the tiled kernel. The decision is made on the group
// total, not per block — the point of grouping.
func GroupedUsesTiled(totalRows, k, n int) bool {
	return useTiled(totalRows, k, n)
}

// GroupedMatMulInto computes out[off[g]:off[g+1]] = a[off[g]:off[g+1]] @ bs[g]
// for every group g. a is [m,k], each bs[g] is [k,n], out is [m,n]
// (zeroed here). Group g's rows are bitwise identical to
// MatMul-dispatched-at-group-total on that block alone.
func GroupedMatMulInto(out, a *Tensor, off []int, bs []*Tensor) {
	m := groupedDims("GroupedMatMulInto", a, off, len(bs))
	k := a.Shape[1]
	n := 0
	for _, b := range bs {
		if len(b.Shape) != 2 || b.Shape[0] != k {
			panic(fmt.Sprintf("tensor: GroupedMatMulInto weight %v, want [%d,_]", b.Shape, k))
		}
		n = b.Shape[1]
	}
	if len(out.Shape) != 2 || out.Shape[0] != m || out.Shape[1] != n {
		panic(fmt.Sprintf("tensor: GroupedMatMulInto out %v, want [%d %d]", out.Shape, m, n))
	}
	out.Zero()
	if m == 0 {
		return
	}
	if GroupedUsesTiled(m, k, n) {
		groupedTiled(out.Data, a.Data, off, bs, m, k, n, packB, n)
		return
	}
	// Naive path: matmulInto's per-row arithmetic, each group's share of
	// the worker's rows against that group's weight block.
	ParallelRows(m, func(s, e int) {
		for g := groupOf(off, s); s < e; g++ {
			hi := min(e, off[g+1])
			matmulRows(out.Data, a.Data, bs[g].Data, s, hi, k, n, true)
			s = max(s, hi)
		}
	})
}

// GroupedMatMulTransBInto computes out[rows g] = a[rows g] @ bs[g]ᵀ
// for every group. a is [m,k], each bs[g] is [n,k] (the backward
// dx-layout), out is [m,n] (zeroed here).
func GroupedMatMulTransBInto(out, a *Tensor, off []int, bs []*Tensor) {
	m := groupedDims("GroupedMatMulTransBInto", a, off, len(bs))
	k := a.Shape[1]
	n := 0
	for _, b := range bs {
		if len(b.Shape) != 2 || b.Shape[1] != k {
			panic(fmt.Sprintf("tensor: GroupedMatMulTransBInto weight %v, want [_,%d]", b.Shape, k))
		}
		n = b.Shape[0]
	}
	if len(out.Shape) != 2 || out.Shape[0] != m || out.Shape[1] != n {
		panic(fmt.Sprintf("tensor: GroupedMatMulTransBInto out %v, want [%d %d]", out.Shape, m, n))
	}
	out.Zero()
	if m == 0 {
		return
	}
	if GroupedUsesTiled(m, k, n) {
		groupedTiled(out.Data, a.Data, off, bs, m, k, n, packBT, k)
		return
	}
	// Naive path: MatMulTransBNaive's per-row arithmetic, each group's
	// weight block transposed as the worker reaches it.
	ParallelRows(m, func(s, e int) {
		for g := groupOf(off, s); s < e; g++ {
			if hi := min(e, off[g+1]); hi > s {
				bT := transposed(bs[g].Data, n, k)
				matmulRows(out.Data, a.Data, *bT, s, hi, k, n, false)
				transPool.Put(bT)
				s = hi
			}
		}
	})
}

// groupedTiled is the shared tiled driver: identical j0→p0 blocking to
// matmulTiledInto, but the inner loop walks group-aligned row units
// and lazily repacks the B panel when a worker's unit range crosses
// into the next group. pack is packB (stride n) or packBT (stride k);
// bStride is the matching last argument.
func groupedTiled(out, a []float32, off []int, bs []*Tensor, m, k, n int,
	pack func(panel, b []float32, p0, p1, j0, j1, stride int), bStride int) {
	up := groupUnits(off, len(bs))
	units := *up
	body := func(lo, hi int) {
		bp := panelPool.Get().(*[]float32)
		panel := *bp
		for j0 := 0; j0 < n; j0 += tileN {
			j1 := min(j0+tileN, n)
			for p0 := 0; p0 < k; p0 += tileK {
				p1 := min(p0+tileK, k)
				curG := -1
				for ui := lo; ui < hi; ui++ {
					u := units[ui]
					if u.g != curG {
						pack(panel, bs[u.g].Data, p0, p1, j0, j1, bStride)
						curG = u.g
					}
					macroKernel(out, a, panel, u.i0, u.i1, j0, j1, p0, p1, k, n)
				}
			}
		}
		panelPool.Put(bp)
	}
	ParallelRows(len(units), body)
	unitPool.Put(up)
}

// GroupedMatMulTransAInto accumulates outs[g] += a[rows g]ᵀ @ b[rows g]
// for every group: the grouped weight-gradient kernel. a is [m,din],
// b is [m,n], each outs[g] is [din,n] and is accumulated in place
// (callers pass the parameter-gradient tensors directly). The
// streaming p-ascending accumulation order matches MatMulTransA, so
// when outs[g] starts zeroed the result is bitwise identical to
// AddInPlace(outs[g], MatMulTransA(block_g, dblock_g)).
func GroupedMatMulTransAInto(outs []*Tensor, a, b *Tensor, off []int) {
	m := groupedDims("GroupedMatMulTransAInto", a, off, len(outs))
	if len(b.Shape) != 2 || b.Shape[0] != m {
		panic(fmt.Sprintf("tensor: GroupedMatMulTransAInto b %v, want [%d,_]", b.Shape, m))
	}
	din, n := a.Shape[1], b.Shape[1]
	for _, o := range outs {
		if len(o.Shape) != 2 || o.Shape[0] != din || o.Shape[1] != n {
			panic(fmt.Sprintf("tensor: GroupedMatMulTransAInto out %v, want [%d %d]", o.Shape, din, n))
		}
	}
	if m == 0 {
		return
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

// groupOf returns the group containing flat row i (off is monotone;
// empty groups are skipped forward).
func groupOf(off []int, i int) int {
	g := 0
	for i >= off[g+1] {
		g++
	}
	return g
}
