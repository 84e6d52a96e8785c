package tensor

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// Grouped-GEMM tests pin two contracts at once: numerical agreement
// with the per-block reference kernels, and *bitwise* agreement — the
// grouped kernels promise that group g's output equals running the
// standalone kernel on that block alone, which is what lets the MoE
// layer swap its per-expert loop for one batched call without moving
// any test tolerance.

// groupedFixture builds a random activation matrix with the given
// per-group row counts and one random weight per group.
func groupedFixture(seed uint64, rows []int, k, n int, transB bool) (a *Tensor, off []int, bs []*Tensor) {
	r := NewRNG(seed)
	off = make([]int, len(rows)+1)
	for g, c := range rows {
		off[g+1] = off[g] + c
	}
	a = Randn(r, 1, off[len(rows)], k)
	bs = make([]*Tensor, len(rows))
	for g := range bs {
		if transB {
			bs[g] = Randn(r, 1, n, k)
		} else {
			bs[g] = Randn(r, 1, k, n)
		}
	}
	return a, off, bs
}

func bitwiseEq(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s: element %d differs bitwise: %v (%#08x) vs %v (%#08x)", name, i, got[i], g, want[i], w)
		}
	}
}

func TestGroupedMatMulBitwiseTiledRegime(t *testing.T) {
	// k=n=64, 40 total rows: 40*64*64 = 163840 ≥ gemmTiledMin, so the
	// grouped call runs tiled. Per-block reference is the forced tiled
	// kernel — bitwise equality proves tiles never span groups.
	rows := []int{17, 0, 1, 22}
	a, off, bs := groupedFixture(1, rows, 64, 64, false)
	if !useTiled(off[len(rows)], 64, 64) {
		t.Fatal("fixture should clear the tiled threshold")
	}
	out := New(off[len(rows)], 64)
	GroupedMatMulInto(out, a, off, bs)
	for g := range bs {
		if rows[g] == 0 {
			continue
		}
		blk := a.RowsView(off[g], off[g+1])
		want := MatMulTiled(blk, bs[g])
		bitwiseEq(t, fmt.Sprintf("group %d", g), out.RowsView(off[g], off[g+1]).Data, want.Data)
	}
}

func TestGroupedMatMulBitwiseNaiveRegime(t *testing.T) {
	// 6 rows at k=n=8: far under the threshold, so the grouped call
	// must match the unblocked i-k-j loop per block.
	rows := []int{2, 3, 0, 1}
	a, off, bs := groupedFixture(2, rows, 8, 8, false)
	if useTiled(off[len(rows)], 8, 8) {
		t.Fatal("fixture should stay under the tiled threshold")
	}
	out := New(off[len(rows)], 8)
	GroupedMatMulInto(out, a, off, bs)
	for g := range bs {
		if rows[g] == 0 {
			continue
		}
		blk := a.RowsView(off[g], off[g+1])
		want := MatMulNaive(blk, bs[g])
		bitwiseEq(t, fmt.Sprintf("group %d", g), out.RowsView(off[g], off[g+1]).Data, want.Data)
	}
}

func TestGroupedMatMulTransBBitwise(t *testing.T) {
	// Tiled regime.
	rows := []int{19, 2, 21}
	a, off, bs := groupedFixture(3, rows, 64, 64, true)
	out := New(off[len(rows)], 64)
	GroupedMatMulTransBInto(out, a, off, bs)
	for g := range bs {
		blk := a.RowsView(off[g], off[g+1])
		want := matMulTransBOn(blk, bs[g], tiledOnly)
		bitwiseEq(t, fmt.Sprintf("tiled group %d", g), out.RowsView(off[g], off[g+1]).Data, want.Data)
	}

	// Naive regime.
	rows = []int{1, 4}
	a, off, bs = groupedFixture(4, rows, 8, 8, true)
	out = New(off[len(rows)], 8)
	GroupedMatMulTransBInto(out, a, off, bs)
	for g := range bs {
		blk := a.RowsView(off[g], off[g+1])
		want := matMulTransBOn(blk, bs[g], stripsOnly)
		bitwiseEq(t, fmt.Sprintf("naive group %d", g), out.RowsView(off[g], off[g+1]).Data, want.Data)
	}
}

func TestGroupedMatMulTransABitwiseAccumulate(t *testing.T) {
	// The weight-gradient kernel accumulates in place. Starting from a
	// zeroed gradient the result is bitwise AddInPlace(grad,
	// MatMulTransA) per block — same streaming add sequence. Starting
	// from a non-zero gradient (micro-batch accumulation) it adds on
	// top; that path reassociates against compute-then-add, so it is
	// pinned with a tolerance instead.
	rows := []int{9, 0, 14, 3}
	r := NewRNG(5)
	din, n := 24, 16
	off := make([]int, len(rows)+1)
	for g, c := range rows {
		off[g+1] = off[g] + c
	}
	a := Randn(r, 1, off[len(rows)], din)
	b := Randn(r, 1, off[len(rows)], n)

	outs := make([]*Tensor, len(rows))
	for g := range outs {
		outs[g] = New(din, n)
	}
	GroupedMatMulTransAInto(outs, a, b, off)
	for g := range outs {
		want := New(din, n)
		if rows[g] > 0 {
			AddInPlace(want, MatMulTransA(a.RowsView(off[g], off[g+1]), b.RowsView(off[g], off[g+1])))
		}
		bitwiseEq(t, fmt.Sprintf("zeroed group %d", g), outs[g].Data, want.Data)
	}

	// Accumulate a second pass on top of the first: result ≈ 2× the
	// single pass.
	GroupedMatMulTransAInto(outs, a, b, off)
	for g := range outs {
		single := New(din, n)
		if rows[g] > 0 {
			AddInPlace(single, MatMulTransA(a.RowsView(off[g], off[g+1]), b.RowsView(off[g], off[g+1])))
		}
		for i, v := range outs[g].Data {
			w := 2 * single.Data[i]
			if d := v - w; d > 1e-4 || d < -1e-4 {
				t.Fatalf("accumulate group %d: element %d = %v, want ≈ %v", g, i, v, w)
			}
		}
	}
}

func TestGroupedSkewedBatchStaysTiled(t *testing.T) {
	// Regression for the dispatch decision the grouped kernel exists
	// for: one hot expert plus many few-row cold experts. Per-expert
	// dispatch would run every cold block through the strips
	// (3*192*64 < gemmTiledMin); the grouped call decides on the total
	// and runs everything — cold rows included — through the tiled
	// kernel, bitwise matching the forced tiled kernel per block. The
	// two differ in the bits only where rows pair and k spans more than
	// one panel, so the cold experts hold 2 and 3 rows and k is 192.
	rows := []int{120, 1, 2, 3, 2, 1, 2, 3, 2}
	k, n := 192, 64
	a, off, bs := groupedFixture(6, rows, k, n, false)

	if !useTiled(off[len(rows)], k, n) {
		t.Fatal("skewed batch total must clear the tiled threshold")
	}
	for g := 1; g < len(rows); g++ {
		if useTiled(rows[g], k, n) {
			t.Fatalf("cold expert %d would clear the threshold alone; fixture broken", g)
		}
	}
	out := New(off[len(rows)], n)
	GroupedMatMulInto(out, a, off, bs)
	for g := range bs {
		blk := a.RowsView(off[g], off[g+1])
		want := MatMulTiled(blk, bs[g])
		bitwiseEq(t, fmt.Sprintf("group %d", g), out.RowsView(off[g], off[g+1]).Data, want.Data)
	}
}

// TestGroupedKernelDeterministicReplay is the seeded-replay gate run
// with -count=2 by verify.sh: two processes (or two in-process runs)
// with the same seed must produce bitwise identical grouped-GEMM
// results despite the worker-parallel panel packing.
func TestGroupedKernelDeterministicReplay(t *testing.T) {
	run := func() ([]float32, []float32, []float32) {
		rows := []int{33, 1, 0, 30, 2}
		a, off, bs := groupedFixture(7, rows, 64, 64, false)
		out := New(off[len(rows)], 64)
		GroupedMatMulInto(out, a, off, bs)

		dout := Randn(NewRNG(8), 1, off[len(rows)], 64)
		dx := New(off[len(rows)], 64)
		tb := make([]*Tensor, len(bs))
		for g := range tb {
			tb[g] = transpose(bs[g])
		}
		GroupedMatMulTransBInto(dx, dout, off, tb)

		grads := make([]*Tensor, len(bs))
		for g := range grads {
			grads[g] = New(64, 64)
		}
		GroupedMatMulTransAInto(grads, a, dout, off)
		flat := []float32{}
		for _, gr := range grads {
			flat = append(flat, gr.Data...)
		}
		return out.Data, dx.Data, flat
	}
	o1, d1, g1 := run()
	o2, d2, g2 := run()
	bitwiseEq(t, "forward", o1, o2)
	bitwiseEq(t, "dx", d1, d2)
	bitwiseEq(t, "grads", g1, g2)
}

func TestGroupedEmptyAndSingleGroup(t *testing.T) {
	// All-empty call is a no-op; a single group must match MatMul's own
	// dispatch decision exactly (same kernel choice on the same shape).
	a := New(0, 8)
	out := New(0, 8)
	GroupedMatMulInto(out, a, []int{0, 0}, []*Tensor{New(8, 8)})

	r := NewRNG(9)
	a = Randn(r, 1, 40, 64)
	b := Randn(r, 1, 64, 64)
	out = New(40, 64)
	GroupedMatMulInto(out, a, []int{0, 40}, []*Tensor{b})
	want := MatMul(a, b)
	bitwiseEq(t, "single group", out.Data, want.Data)
}

// Every group's weight must be as wide as the first. A wider or
// narrower one is refused by name whichever comes first, on the strip
// driver (4 rows) and the tiled one (200), a@b and a@bᵀ alike; unchecked,
// the kernels read the first weight at the other's stride, or index
// past its end.
func TestGroupedRejectsMixedWidths(t *testing.T) {
	for _, rows := range []int{4, 200} {
		for _, transB := range []bool{false, true} {
			for _, widths := range [][2]int{{64, 3}, {3, 64}} {
				a, off := New(rows, 8), []int{0, rows / 2, rows}
				bs := make([]*Tensor, 2)
				for g, w := range widths {
					if transB {
						bs[g] = New(w, 8)
					} else {
						bs[g] = New(8, w)
					}
				}
				out := New(rows, widths[1])
				name := fmt.Sprintf("rows=%d transB=%v widths=%v", rows, transB, widths)
				func() {
					defer func() {
						if msg, _ := recover().(string); !strings.Contains(msg, "output width") {
							t.Errorf("%s: panic %q, want the output-width check", name, msg)
						}
					}()
					if transB {
						GroupedMatMulTransBInto(out, a, off, bs)
					} else {
						GroupedMatMulInto(out, a, off, bs)
					}
				}()
			}
		}
	}
}
