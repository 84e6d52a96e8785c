//go:build amd64 && !purego

package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The assembly kernels promise the generic Go loops' results bit for
// bit: lanes run across output columns only and every multiply-add is
// a rounded multiply then a rounded add. These tests run each GEMM
// entry point twice on generated shapes and inputs — once with
// useAVX2 as detected, once forced off — and compare under
// math.Float32bits (bitwiseEq; the SIMD result is "got").

// generic runs f on the portable path.
func generic(f func()) {
	saved := useAVX2
	useAVX2 = false
	defer func() { useAVX2 = saved }()
	f()
}

func requireAVX2(t *testing.T) {
	t.Helper()
	if !useAVX2 {
		t.Skip("CPU without AVX2: only the generic path exists")
	}
}

func TestAxpyBitIdentical(t *testing.T) {
	requireAVX2(t)
	r := NewRNG(7)
	for n := 0; n <= 100; n++ {
		for _, off := range []int{0, 1, 3} { // unaligned starts
			x := awkward(r, n+off).Data[off:]
			base := awkward(r, n+off+2).Data[off:] // dst may be longer than x
			for _, a := range []float32{1.7, -0.3, 0, 1e30, 1e-40} {
				got := append([]float32(nil), base...)
				want := append([]float32(nil), base...)
				Axpy(got, x, a)
				axpyGeneric(want, x, a)
				bitwiseEq(t, fmt.Sprintf("Axpy n=%d off=%d a=%v", n, off, a), got, want)
			}
		}
	}
}

// hwNaN is the NaN x86 produces for an invalid operation. Salting with
// this one keeps every NaN in a run the same bit pattern: which of two
// different NaNs an add or multiply propagates depends on operand
// order, and Go's own scalar loops do not agree on that among
// themselves.
var hwNaN = math.Float32frombits(0xFFC00000)

// TestAxpyNBitIdentical checks the strip kernel against the loop of
// Axpy calls it replaces: every strip-width combination (len 0…200),
// depths up to and around any block a caller might choose, strided
// multipliers, rows padded past len, unaligned starts, both skip
// modes. Inputs are awkward's, so most columns stay finite and a fused
// multiply-add or a reordered p shows in their low bits; the salted
// variants then put ±0, NaN and ±Inf where the skip rule decides the
// result — a skipped 0·Inf leaves dst alone, an unskipped one turns it
// to NaN, and a NaN multiplier is never skipped.
func TestAxpyNBitIdentical(t *testing.T) {
	requireAVX2(t)
	r := NewRNG(19)
	kds := []int{0, 1, 2, 3, 7, 8, 15, 16, 17, 63, 64, 65, 127, 128, 129, 130}
	for n := 0; n <= 200; n++ {
		for _, kd := range []int{kds[n%len(kds)], r.Intn(131)} {
			for _, sa := range []int{1, 3} {
				off, sb := r.Intn(4), n+5*r.Intn(2)
				as := awkward(r, kd*sa+off).Data[off:]
				b := awkward(r, kd*sb+n+off).Data[off:]
				base := awkward(r, n+off).Data[off:]
				for salt := 0; salt < 2; salt++ {
					if salt == 1 && kd > 0 {
						p, q := r.Intn(kd), r.Intn(kd)
						as[p*sa] = []float32{0, float32(math.Copysign(0, -1)), hwNaN}[r.Intn(3)]
						as[q*sa] = float32(math.Copysign(0, -1))
						if n > 0 {
							b[p*sb+r.Intn(n)] = float32(math.Inf(1 - 2*r.Intn(2)))
							b[q*sb+r.Intn(n)] = float32(math.Inf(-1))
						}
					}
					for _, skip := range []bool{true, false} {
						got := append([]float32(nil), base...)
						want := append([]float32(nil), base...)
						AxpyN(got, as, sa, b, sb, kd, skip)
						generic(func() { AxpyN(want, as, sa, b, sb, kd, skip) })
						bitwiseEq(t, fmt.Sprintf("AxpyN n=%d kd=%d sa=%d sb=%d off=%d salt=%d skip=%v", n, kd, sa, sb, off, salt, skip), got, want)
					}
				}
			}
		}
	}
}

// simdShapes draws (m,k,n) triples from sizes on and around the
// kernel's boundaries: one row and odd row counts (the unpaired
// trailing row), widths and depths either side of 8/16/32 lanes and
// of tileN/tileK, depths below one vector.
func simdShapes(r *RNG, count int) [][3]int {
	ms := []int{1, 2, 3, 5, 8, 33, 64, 65, 67}
	ks := []int{1, 3, 7, 8, 9, 31, 64, 65, 127, 128, 129, 130, 257}
	ns := []int{1, 3, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 40, 63, 64, 65, 67, 72, 96, 127, 128, 129, 200}
	shapes := [][3]int{{1, 1, 1}, {2, 1, 8}, {65, 130, 67}, {129, 130, 72}, {3, 7, 129}}
	for len(shapes) < count {
		shapes = append(shapes, [3]int{ms[r.Intn(len(ms))], ks[r.Intn(len(ks))], ns[r.Intn(len(ns))]})
	}
	return shapes
}

func TestGEMMBitIdentical(t *testing.T) {
	requireAVX2(t)
	r := NewRNG(11)
	for _, sh := range simdShapes(r, 40) {
		m, k, n := sh[0], sh[1], sh[2]
		a := awkward(r, m, k)
		b := awkward(r, k, n)
		bt := awkward(r, n, k)
		at := awkward(r, k, m)
		ops := []struct {
			name string
			f    func() *Tensor
		}{
			{"MatMul", func() *Tensor { return MatMul(a, b) }},
			{"MatMulNaive", func() *Tensor { return MatMulNaive(a, b) }},
			{"MatMulTiled", func() *Tensor { return MatMulTiled(a, b) }},
			{"MatMulTransB", func() *Tensor { return MatMulTransB(a, bt) }},
			{"MatMulTransB on strips", func() *Tensor { return matMulTransBOn(a, bt, stripsOnly) }},
			{"MatMulTransB tiled", func() *Tensor { return matMulTransBOn(a, bt, tiledOnly) }},
			{"MatMulTransA", func() *Tensor { return MatMulTransA(at, b) }},
		}
		for _, op := range ops {
			simd := op.f()
			var gen *Tensor
			generic(func() { gen = op.f() })
			bitwiseEq(t, fmt.Sprintf("%s %dx%dx%d", op.name, m, k, n), simd.Data, gen.Data)
		}
	}
}

func TestBatchMatMulBitIdentical(t *testing.T) {
	requireAVX2(t)
	r := NewRNG(13)
	// Attention shapes: [B*H, S, hd] with S and hd on and off 8, below
	// and above the per-batch tiled threshold.
	for _, sh := range [][4]int{{3, 1, 8, 5}, {4, 32, 32, 8}, {2, 33, 33, 16}, {2, 17, 9, 23}, {2, 64, 64, 16}, {1, 65, 72, 40}, {2, 40, 48, 64}} {
		bs, m, k, n := sh[0], sh[1], sh[2], sh[3]
		a := awkward(r, bs, m, k)
		b := awkward(r, bs, k, n)
		bt := awkward(r, bs, n, k)
		for _, op := range []struct {
			name string
			f    func() *Tensor
		}{
			{"BatchMatMul", func() *Tensor { return BatchMatMul(a, b) }},
			{"BatchMatMulTransB", func() *Tensor { return BatchMatMulTransB(a, bt) }},
		} {
			simd := op.f()
			var gen *Tensor
			generic(func() { gen = op.f() })
			bitwiseEq(t, fmt.Sprintf("%s %v", op.name, sh), simd.Data, gen.Data)
		}
	}
}

func TestGroupedBitIdentical(t *testing.T) {
	requireAVX2(t)
	r := NewRNG(17)
	for _, c := range []struct {
		rows []int
		k, n int
	}{
		{[]int{17, 0, 1, 22}, 64, 64}, // tiled, an empty group, a one-row group
		{[]int{0, 0, 3}, 8, 9},        // naive
		{[]int{65, 2, 0, 129}, 130, 67},
		{[]int{1, 1, 1, 1}, 129, 200},
		{[]int{5, 64, 7}, 7, 33},
		{[]int{0}, 16, 16}, // no rows at all
	} {
		a, off, bs := groupedFixture(uint64(r.Intn(1<<20)), c.rows, c.k, c.n, false)
		_, _, bts := groupedFixture(uint64(r.Intn(1<<20)), c.rows, c.k, c.n, true)
		m := off[len(c.rows)]
		copy(a.Data, awkward(r, m, c.k).Data)
		dout := awkward(r, m, c.n)
		name := fmt.Sprintf("rows=%v k=%d n=%d", c.rows, c.k, c.n)

		fwd := func() *Tensor { out := Full(3, m, c.n); GroupedMatMulInto(out, a, off, bs); return out }
		bwd := func() *Tensor { out := Full(3, m, c.n); GroupedMatMulTransBInto(out, a, off, bts); return out }
		// The weight-gradient kernel accumulates into its outputs; start
		// them non-zero so the first += is covered too.
		wgrad := func() *Tensor {
			all := Full(0.5, len(c.rows)*c.k, c.n)
			outs := make([]*Tensor, len(c.rows))
			for g := range outs {
				outs[g] = all.RowsView(g*c.k, (g+1)*c.k)
			}
			GroupedMatMulTransAInto(outs, a, dout, off)
			return all
		}
		for _, op := range []struct {
			name string
			f    func() *Tensor
		}{{"GroupedMatMulInto", fwd}, {"GroupedMatMulTransBInto", bwd}, {"GroupedMatMulTransAInto", wgrad}} {
			simd := op.f()
			var gen *Tensor
			generic(func() { gen = op.f() })
			bitwiseEq(t, op.name+" "+name, simd.Data, gen.Data)
		}
	}
}
