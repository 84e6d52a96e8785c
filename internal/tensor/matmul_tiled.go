package tensor

import "sync"

// Tiled GEMM kernel modeled on the blocking scheme used for the
// SW26010-Pro CPE mesh: the output is processed in MC×NC macro-tiles
// with a KC-deep panel of B packed contiguously (the analogue of
// staging a tile in CPE local store), and a register micro-kernel
// accumulates each micro-tile. On cache hierarchies this is the same
// optimization the paper's hand-written kernels perform with DMA.
//
// The blocking is also a numerical contract. Every output element of a
// paired row is computed as c = 0; c += a·b over one panel's depth;
// out += c, panel after panel in p0 order; the odd trailing row of a
// macro-tile adds each a·b to out directly, as the strip driver does
// for every row. Which of the two an element gets depends on tileM,
// tileK, the 2-row pairing, units that never span a group, and which
// driver a call runs (gemmTiledMin and where each caller decides, see
// matmul.go), so none of them is a tuning knob: goldens, digests and
// the inference path's batch invariance (DESIGN.md) are pinned to
// them. How many columns one micro-kernel call covers is not part of
// the contract — columns never mix — which is what lets the amd64
// kernel (simd_amd64.s) run 32 of them per call, eight to a ymm
// register, and still match the scalar kernels below bit for bit.

const (
	tileM  = 64  // rows per macro-tile (per-worker unit)
	tileN  = 64  // cols per macro-tile
	tileK  = 128 // reduction panel depth
	microR = 2   // rows per micro-kernel call, vector and scalar alike
	microC = 4   // cols per scalar micro-kernel call
)

// panelPool recycles the per-worker packed B panels so repeated GEMMs
// allocate nothing.
var panelPool = sync.Pool{New: func() any {
	s := make([]float32, tileK*tileN)
	return &s
}}

// gUnit is one row macro-tile of the tiled driver: rows [i0,i1) of the
// flat activation matrix, all belonging to group g.
type gUnit struct{ g, i0, i1 int }

// tiled is the tiled driver. Each group's rows are cut into tileM-row
// units, in group order, so a worker's contiguous range of units meets
// each group at most once per (j,p) panel: it packs that panel of the
// group's weight when it reaches the group's first unit and reuses it
// across the rest. With one group this is the classic blocked GEMM,
// and because no unit spans a group, each group's rows are bitwise
// what that block alone would get.
func (g *gemm) tiled() {
	g.units = g.units[:0]
	for gi := range g.bs {
		for i0 := g.off[gi]; i0 < g.off[gi+1]; i0 += tileM {
			g.units = append(g.units, gUnit{gi, i0, min(i0+tileM, g.off[gi+1])})
		}
	}
	ParallelRows(len(g.units), g.tiledFn)
}

// tiledRange runs units [lo,hi) of the descriptor on tiledUnits.
func (g *gemm) tiledRange(lo, hi int) {
	tiledUnits(g.out, g.a, g.bs, g.units[lo:hi], g.k, g.n, g.transB)
}

// tiledUnits runs units over every (j,p) panel. ᵀB weights are
// transposed into the panel as it is packed (packBT), so the macro
// kernel is the same for both layouts.
func tiledUnits(out, a []float32, bs [][]float32, units []gUnit, k, n int, transB bool) {
	pack, stride := packB, n
	if transB {
		pack, stride = packBT, k
	}
	bp := panelPool.Get().(*[]float32)
	panel := *bp
	for j0 := 0; j0 < n; j0 += tileN {
		j1 := min(j0+tileN, n)
		for p0 := 0; p0 < k; p0 += tileK {
			p1 := min(p0+tileK, k)
			cur := -1
			for _, u := range units {
				if u.g != cur {
					pack(panel, bs[u.g], p0, p1, j0, j1, stride)
					cur = u.g
				}
				macroKernel(out, a, panel, u.i0, u.i1, j0, j1, p0, p1, k, n)
			}
		}
	}
	panelPool.Put(bp)
}

// packB copies B[p0:p1, j0:j1] into a contiguous row-major panel with
// stride (j1-j0), improving locality of the inner loops.
func packB(panel, b []float32, p0, p1, j0, j1, n int) {
	w := j1 - j0
	for p := p0; p < p1; p++ {
		copy(panel[(p-p0)*w:(p-p0)*w+w], b[p*n+j0:p*n+j1])
	}
}

// packBT transposes B[j0:j1, p0:p1] (B stored [n,k]) into the same
// panel layout packB produces, so the macro kernel is shared between
// the normal and the ᵀ variants.
func packBT(panel, b []float32, p0, p1, j0, j1, k int) {
	transposeInto(panel, j1-j0, b[j0*k+p0:], k, j1-j0, p1-p0)
}

// macroKernel updates out[i0:i1, j0:j1] += A[i0:i1, p0:p1] @ panel.
func macroKernel(out, a, panel []float32, i0, i1, j0, j1, p0, p1, k, n int) {
	w := j1 - j0
	kd := p1 - p0
	i := i0
	for ; i+microR <= i1; i += microR {
		j := gemm2Rows(out, a, panel, i, j0, p0, kd, k, n, w)
		for ; j+microC <= w; j += microC {
			microKernel2x4(out, a, panel, i, j0+j, j, kd, k, n, w, p0)
		}
		// Column remainder.
		for ; j < w; j++ {
			for di := 0; di < microR; di++ {
				var sum float32
				arow := a[(i+di)*k+p0:]
				for p := 0; p < kd; p++ {
					sum += arow[p] * panel[p*w+j]
				}
				out[(i+di)*n+j0+j] += sum
			}
		}
	}
	// Row remainder.
	for ; i < i1; i++ {
		AxpyN(out[i*n+j0:i*n+j1], a[i*k+p0:i*k+p1], 1, panel, w, kd, true)
	}
}

// microKernel2x4 accumulates a 2x4 output block in eight scalar
// accumulators: the whole kernel where there is no vector one, the
// columns past the last multiple of 8 where there is. The three-index
// subslices pin lengths so the compiler drops bounds checks from the
// inner loop.
func microKernel2x4(out, a, panel []float32, i, jAbs, j, kd, k, n, w, p0 int) {
	var c00, c01, c02, c03 float32
	var c10, c11, c12, c13 float32
	a0 := a[(i+0)*k+p0 : (i+0)*k+p0+kd : (i+0)*k+p0+kd]
	a1 := a[(i+1)*k+p0 : (i+1)*k+p0+kd : (i+1)*k+p0+kd]
	off := j
	for p := 0; p < kd; p++ {
		pr := panel[off : off+4 : off+4]
		b0, b1, b2, b3 := pr[0], pr[1], pr[2], pr[3]
		av0, av1 := a0[p], a1[p]
		c00 += av0 * b0
		c01 += av0 * b1
		c02 += av0 * b2
		c03 += av0 * b3
		c10 += av1 * b0
		c11 += av1 * b1
		c12 += av1 * b2
		c13 += av1 * b3
		off += w
	}
	o0 := out[(i+0)*n+jAbs : (i+0)*n+jAbs+4 : (i+0)*n+jAbs+4]
	o1 := out[(i+1)*n+jAbs : (i+1)*n+jAbs+4 : (i+1)*n+jAbs+4]
	o0[0] += c00
	o0[1] += c01
	o0[2] += c02
	o0[3] += c03
	o1[0] += c10
	o1[1] += c11
	o1[2] += c12
	o1[3] += c13
}
