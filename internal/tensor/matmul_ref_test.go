package tensor

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// The GEMM paths outside the tiled kernel's paired rows all run on
// AxpyN, with operands packed or transposed to suit it. Their
// numerical contract is older than that: each is one of three scalar
// loops, written out below, and must return its bits whichever way it
// is blocked and whether AxpyN is the assembly or (with -tags purego,
// or off amd64) the loop of Axpy calls.

// awkward fills a tensor with unit-scale values salted with the inputs
// a vector kernel is most likely to treat differently from a scalar
// one: exact zeros of both signs (the call sites skip a == 0),
// subnormals, and magnitudes whose products leave float32's range.
func awkward(r *RNG, shape ...int) *Tensor {
	t := Uniform(r, -1, 1, shape...)
	for i := range t.Data {
		switch r.Intn(16) {
		case 0:
			t.Data[i] = 0
		case 1:
			t.Data[i] = float32(math.Copysign(0, -1))
		case 2:
			t.Data[i] *= 1e-40 // subnormal
		case 3:
			t.Data[i] *= 1e30
		case 4:
			t.Data[i] *= 1e-30
		}
	}
	return t
}

// refMatMul is a@b the i-p-j way: out[i,:] += a[i,p]·b[p,:] in p
// order, zero a[i,p] skipped. out is accumulated into.
func refMatMul(out, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out[i*n+j] += av * b[p*n+j]
			}
		}
	}
}

// refTransA is aᵀ@b for a [k,m] streamed p-outermost: out[i,:] +=
// a[p,i]·b[p,:], zero a[p,i] skipped. out is accumulated into.
func refTransA(out, a, b []float32, k, m, n int) {
	for p := 0; p < k; p++ {
		for i := 0; i < m; i++ {
			av := a[p*m+i]
			if av == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out[i*n+j] += av * b[p*n+j]
			}
		}
	}
}

// refTransB is a@bᵀ for b [n,k], one dot product per element summed
// from zero in p order, nothing skipped.
func refTransB(out, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float32
			for p := 0; p < k; p++ {
				sum += a[i*k+p] * b[j*k+p]
			}
			out[i*n+j] = sum
		}
	}
}

// matMulTransBOn returns a@bᵀ on the driver kn pins, as MatMulTiled
// and MatMulNaive pin a@b.
func matMulTransBOn(a, b *Tensor, kn kernel) *Tensor {
	return matmul("MatMulTransB", a, b, true, kn)
}

// transposeInto feeds those paths (and packBT): row
// counts off its 4-row step, widths either side of its column block,
// both strides wider than the block.
func TestTransposeInto(t *testing.T) {
	r := NewRNG(37)
	for _, sh := range [][2]int{{1, 1}, {3, 5}, {4, 129}, {7, 300}, {130, 9}, {64, 128}, {66, 257}} {
		rows, cols := sh[0], sh[1]
		ls, ld := cols+3, rows+2
		src := Uniform(r, -1, 1, rows*ls).Data
		dst := make([]float32, cols*ld)
		transposeInto(dst, ld, src, ls, rows, cols)
		for j := 0; j < cols; j++ {
			for i := 0; i < ld; i++ {
				want := float32(0) // past the block: untouched
				if i < rows {
					want = src[i*ls+j]
				}
				if dst[j*ld+i] != want {
					t.Fatalf("%dx%d: dst[%d,%d] = %v, want %v", rows, cols, j, i, dst[j*ld+i], want)
				}
			}
		}
	}
}

func TestNaiveKernelsMatchScalarLoops(t *testing.T) {
	r := NewRNG(23)
	// m = 1 and odd, k either side of transAK and its multiples, n off
	// 8 and off 64; some above gemmTiledMin, where only the entry
	// points that ignore it stay on these loops.
	for _, sh := range [][3]int{
		{1, 1, 1}, {1, 16, 7}, {3, 9, 17}, {2, 130, 8}, {5, 127, 65}, {7, 64, 64}, {33, 129, 9},
		{1, 257, 72}, {64, 16, 40}, {65, 130, 67}, {9, 300, 200}, {129, 64, 96},
	} {
		m, k, n := sh[0], sh[1], sh[2]
		name := fmt.Sprintf("%dx%dx%d", m, k, n)
		a, b := awkward(r, m, k), awkward(r, k, n)
		at, bt := awkward(r, k, m), awkward(r, n, k)
		// Element [0,0] meets 0·Inf first: skipped by a@b, so finite;
		// multiplied by a@bᵀ, so NaN.
		a.Data[0], b.Data[0], bt.Data[0] = 0, float32(math.Inf(1)), float32(math.Inf(1))

		want := make([]float32, m*n)
		refMatMul(want, a.Data, b.Data, m, k, n)
		bitwiseEq(t, "MatMulNaive "+name, MatMulNaive(a, b).Data, want)
		if !useTiled(m, k, n) {
			bitwiseEq(t, "MatMul "+name, MatMul(a, b).Data, want)
		}

		clear(want)
		refTransA(want, at.Data, b.Data, k, m, n)
		bitwiseEq(t, "MatMulTransA "+name, MatMulTransA(at, b).Data, want)

		refTransB(want, a.Data, bt.Data, m, k, n)
		if !math.IsNaN(float64(want[0])) {
			t.Fatalf("%s: reference a@bᵀ skipped 0·Inf", name)
		}
		bitwiseEq(t, "MatMulTransB on strips "+name, matMulTransBOn(a, bt, stripsOnly).Data, want)
		if !useTiled(m, k, n) {
			bitwiseEq(t, "MatMulTransB "+name, MatMulTransB(a, bt).Data, want)
		}
	}
}

func TestBatchKernelsMatchScalarLoops(t *testing.T) {
	r := NewRNG(29)
	// Attention shapes [B·H, S, hd] whose per-batch product stays below
	// gemmTiledMin; head dims on and off 8.
	for _, sh := range [][4]int{{3, 1, 8, 5}, {4, 32, 32, 8}, {2, 33, 33, 16}, {2, 17, 9, 23}, {5, 32, 12, 32}, {2, 64, 16, 63}} {
		bs, m, k, n := sh[0], sh[1], sh[2], sh[3]
		if useTiled(m, k, n) {
			t.Fatalf("%v is a tiled shape", sh)
		}
		a, b, bt := awkward(r, bs, m, k), awkward(r, bs, k, n), awkward(r, bs, n, k)
		want, wantT := make([]float32, bs*m*n), make([]float32, bs*m*n)
		for bi := 0; bi < bs; bi++ {
			refMatMul(want[bi*m*n:], a.Data[bi*m*k:], b.Data[bi*k*n:], m, k, n)
			refTransB(wantT[bi*m*n:], a.Data[bi*m*k:], bt.Data[bi*n*k:], m, k, n)
		}
		bitwiseEq(t, fmt.Sprintf("BatchMatMul %v", sh), BatchMatMul(a, b).Data, want)
		bitwiseEq(t, fmt.Sprintf("BatchMatMulTransB %v", sh), BatchMatMulTransB(a, bt).Data, wantT)
	}
}

func TestGroupedKernelsMatchScalarLoops(t *testing.T) {
	r := NewRNG(31)
	for _, c := range []struct {
		rows []int
		k, n int
	}{
		{[]int{0, 0, 3}, 8, 9},
		{[]int{5, 64, 7}, 7, 33},
		{[]int{1, 0, 1, 9}, 65, 24},
		{[]int{1, 1, 1, 1}, 129, 200}, // grouped forward/backward tiled; the weight gradient is not
		{[]int{17, 0, 1, 150}, 64, 67},
		{[]int{0}, 16, 16},
	} {
		groups := len(c.rows)
		off := make([]int, groups+1)
		for g, rows := range c.rows {
			off[g+1] = off[g] + rows
		}
		m := off[groups]
		name := fmt.Sprintf("rows=%v k=%d n=%d", c.rows, c.k, c.n)
		a, dout := awkward(r, m, c.k), awkward(r, m, c.n)
		bs, bts := make([]*Tensor, groups), make([]*Tensor, groups)
		for g := range bs {
			bs[g], bts[g] = awkward(r, c.k, c.n), awkward(r, c.n, c.k)
		}

		if !useTiled(m, c.k, c.n) {
			want, wantT := make([]float32, m*c.n), make([]float32, m*c.n)
			for g := range bs {
				lo, rows := off[g], c.rows[g]
				refMatMul(want[lo*c.n:], a.Data[lo*c.k:], bs[g].Data, rows, c.k, c.n)
				refTransB(wantT[lo*c.n:], a.Data[lo*c.k:], bts[g].Data, rows, c.k, c.n)
			}
			out := Full(3, m, c.n)
			GroupedMatMulInto(out, a, off, bs)
			bitwiseEq(t, "GroupedMatMulInto "+name, out.Data, want)
			GroupedMatMulTransBInto(out, a, off, bts)
			bitwiseEq(t, "GroupedMatMulTransBInto "+name, out.Data, wantT)
		}

		// The weight gradient accumulates: start from non-zero outputs.
		all, want := Full(0.5, groups*c.k, c.n), Full(0.5, groups*c.k, c.n)
		outs := make([]*Tensor, groups)
		for g := range outs {
			outs[g] = all.RowsView(g*c.k, (g+1)*c.k)
			refTransA(want.Data[g*c.k*c.n:], a.Data[off[g]*c.k:], dout.Data[off[g]*c.n:], c.rows[g], c.k, c.n)
		}
		GroupedMatMulTransAInto(outs, a, dout, off)
		bitwiseEq(t, "GroupedMatMulTransAInto "+name, all.Data, want.Data)
	}
}

// gemmBitsDigest is the FNV-64a hash of every output bit
// TestGEMMBitsPinned produces.
const gemmBitsDigest = 0x2d502b1efaea7f37

// TestGEMMBitsPinned runs all ten GEMM entry points over shapes on
// either side of every number the rounding sequence depends on —
// gemmTiledMin, tileM, tileN, tileK, the 2-row pairing and the
// 4-column scalar remainder — plus batched shapes whose elements
// stay under the threshold while their total clears it, and grouped
// calls with empty, one-row and skewed groups, and hashes every output
// bit. The weights carry one ±Inf each, so where a zero multiplier is
// skipped shows too. The digest is the same with and without the
// assembly (-tags purego).
func TestGEMMBitsPinned(t *testing.T) {
	r := NewRNG(41)
	var buf []byte
	put := func(name string, out *Tensor) {
		buf = append(buf, name...)
		for _, v := range out.Data {
			bits := math.Float32bits(v)
			if v != v {
				bits = 0x7fc00000 // which NaN is not part of the contract
			}
			buf = binary.LittleEndian.AppendUint32(buf, bits)
		}
	}
	weight := func(shape ...int) *Tensor {
		w := awkward(r, shape...)
		if len(w.Data) > 0 {
			w.Data[r.Intn(len(w.Data))] = float32(math.Inf(1 - 2*r.Intn(2)))
		}
		return w
	}

	shapes := [][3]int{
		{1, 1, 1}, {2, 1, 8}, {3, 7, 5}, {15, 64, 64}, {16, 64, 64}, {63, 32, 32}, {64, 32, 32},
		{1, 255, 256}, {1, 256, 256}, {65, 130, 67}, {64, 128, 64}, {65, 129, 65}, {129, 257, 65},
		{3, 129, 5}, {2, 300, 9}, {33, 129, 9},
	}
	ms := []int{1, 2, 3, 5, 15, 16, 17, 63, 64, 65, 129}
	ks := []int{1, 7, 64, 127, 128, 129, 257}
	ns := []int{1, 3, 4, 5, 8, 33, 63, 64, 65, 67, 129}
	for len(shapes) < 28 {
		shapes = append(shapes, [3]int{ms[r.Intn(len(ms))], ks[r.Intn(len(ks))], ns[r.Intn(len(ns))]})
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a, at, b, bt := awkward(r, m, k), awkward(r, k, m), weight(k, n), weight(n, k)
		name := fmt.Sprintf("%dx%dx%d", m, k, n)
		put("MatMul "+name, MatMul(a, b))
		put("MatMulNaive "+name, MatMulNaive(a, b))
		put("MatMulTiled "+name, MatMulTiled(a, b))
		put("MatMulTransB "+name, MatMulTransB(a, bt))
		put("MatMulTransA "+name, MatMulTransA(at, b))
	}

	// [B, m, k, n]: the last two are under gemmTiledMin per element and
	// over it in total, with k past one panel.
	for _, sh := range [][4]int{
		{3, 1, 8, 5}, {4, 32, 32, 8}, {2, 33, 33, 16}, {2, 17, 9, 23}, {2, 64, 64, 16}, {1, 65, 72, 40},
		{3, 4, 129, 64}, {2, 16, 129, 31},
	} {
		bs, m, k, n := sh[0], sh[1], sh[2], sh[3]
		a, b, bt := awkward(r, bs, m, k), weight(bs, k, n), weight(bs, n, k)
		put(fmt.Sprintf("BatchMatMul %v", sh), BatchMatMul(a, b))
		put(fmt.Sprintf("BatchMatMulTransB %v", sh), BatchMatMulTransB(a, bt))
	}

	for _, c := range []struct {
		rows []int
		k, n int
	}{
		{[]int{0, 0, 3}, 8, 9},
		{[]int{17, 0, 1, 22}, 64, 64},
		{[]int{65, 2, 0, 129}, 130, 67},
		{[]int{1, 1, 1, 1}, 129, 200},
		{[]int{5, 64, 7}, 7, 33},
		{[]int{0}, 16, 16},
		{[]int{120, 2, 3, 0, 2}, 160, 40}, // tiled on the total, every cold group naive alone
		{[]int{3, 2, 4}, 257, 24},
	} {
		groups := len(c.rows)
		off := make([]int, groups+1)
		for g, rows := range c.rows {
			off[g+1] = off[g] + rows
		}
		m := off[groups]
		a, dout := awkward(r, m, c.k), awkward(r, m, c.n)
		bs, bts := make([]*Tensor, groups), make([]*Tensor, groups)
		for g := range bs {
			bs[g], bts[g] = weight(c.k, c.n), weight(c.n, c.k)
		}
		name := fmt.Sprintf("rows=%v k=%d n=%d", c.rows, c.k, c.n)
		out := Full(3, m, c.n)
		GroupedMatMulInto(out, a, off, bs)
		put("GroupedMatMulInto "+name, out)
		out = Full(3, m, c.n)
		GroupedMatMulTransBInto(out, a, off, bts)
		put("GroupedMatMulTransBInto "+name, out)
		all := Full(0.5, groups*c.k, c.n)
		outs := make([]*Tensor, groups)
		for g := range outs {
			outs[g] = all.RowsView(g*c.k, (g+1)*c.k)
		}
		GroupedMatMulTransAInto(outs, a, dout, off)
		put("GroupedMatMulTransAInto "+name, all)
	}

	h := fnv.New64a()
	h.Write(buf)
	if got := h.Sum64(); got != gemmBitsDigest {
		t.Fatalf("GEMM output digest %#016x, want %#016x", got, uint64(gemmBitsDigest))
	}
}
