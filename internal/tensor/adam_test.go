package tensor

import (
	"fmt"
	"math"
	"testing"
)

// TestAdamUpdateMatchesLoop holds AdamUpdate — the vector kernel with
// the Go loop as its tail where the CPU has AVX2, the loop alone
// otherwise — to adamGeneric bit for bit, on dst, m and v. Lengths
// 0…67 meet every body/tail split; one run has the length of an MoE
// block's expert group on one of the ep4 ranks of the benchmark's
// train_moe_ep8 (4 experts of 128→256→128), which the kernel workers
// cut at offsets off a multiple of 8, as do the unaligned starts.
// awkward's inputs put ±0, subnormals and 1e±30 in every operand, so
// g·g overflows to Inf and underflows to 0; the salted runs add zero
// moments with zero gradients (u = 0/eps), infinities and NaNs. Every
// NaN is x86's own 0xffc00000, the one an invalid operation produces:
// which of two NaNs an add or multiply keeps depends on operand order,
// which Go's scalar code does not fix.
func TestAdamUpdateMatchesLoop(t *testing.T) {
	r := NewRNG(23)
	nan := math.Float32frombits(0xffc00000)
	inf := float32(math.Inf(1))
	lens := make([]int, 0, 70)
	for n := 0; n <= 67; n++ {
		lens = append(lens, n)
	}
	lens = append(lens, 4*(128*256+256+256*128+128))
	for _, n := range lens {
		for _, off := range []int{0, 1, 3} {
			operand := func() []float32 { return awkward(r, n+off).Data[off:] }
			w, g, m := operand(), operand(), operand()
			v := operand()
			for i := range v {
				v[i] = float32(math.Abs(float64(v[i])))
			}
			if salt := n > 0 && off == 1; salt {
				for k := 0; k < 1+n/16; k++ {
					i := r.Intn(n)
					g[i], m[i], v[i] = 0, 0, 0
					switch k % 5 {
					case 1:
						g[r.Intn(n)] = -inf
					case 2:
						w[r.Intn(n)] = inf
					case 3:
						g[r.Intn(n)] = nan
					case 4:
						[][]float32{w, m, v}[r.Intn(3)][r.Intn(n)] = nan
					}
				}
			}
			for _, wd := range []float32{0, 0.01} {
				c := AdamCoeffs{Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: wd, LR: 3e-4, BC1: 0.19, BC2: 0.002996}
				for _, alias := range []bool{true, false} {
					name := fmt.Sprintf("n=%d off=%d wd=%v alias=%v", n, off, wd, alias)
					clone := func(x []float32) []float32 { return append([]float32(nil), x...) }
					gw, gm, gv := clone(w), clone(m), clone(v)
					ww, wm, wv := clone(w), clone(m), clone(v)
					gd, wdst := gw, ww
					if !alias {
						gd, wdst = make([]float32, n), make([]float32, n)
					}
					AdamUpdate(gd, gw, g, gm, gv, c)
					adamGeneric(wdst, ww, g, wm, wv, c)
					bitwiseEq(t, name+" dst", gd, wdst)
					bitwiseEq(t, name+" m", gm, wm)
					bitwiseEq(t, name+" v", gv, wv)
					if !alias {
						bitwiseEq(t, name+" w untouched", gw, w)
					}
				}
			}
		}
	}
}
