//go:build amd64 && !purego

package tensor

import (
	"flag"
	"fmt"
	"math"
	"testing"
)

// The transcendental kernels promise the bits of the scalar loops in
// nnops.go, which call math.Exp and math.Tanh. Every caller feeds them
// a float32, so the promise is checked over the whole input domain
// (TestVMathSweep) rather than sampled; the row and tail tests then
// cover what a per-element sweep cannot: mixed groups, hand-overs
// between kernel and scalar code, lengths, alignment, the running sum.

var vmathStride = flag.Uint64("vmath.stride", 509,
	"TestVMathSweep visits every stride-th float32 bit pattern; 1 is the exhaustive proof (minutes)")

// scalarMath runs f with the vector transcendentals off.
func scalarMath(f func()) {
	saved := useVMath
	useVMath = false
	defer func() { useVMath = saved }()
	f()
}

func requireVMath(t *testing.T) {
	t.Helper()
	if !useVMath {
		t.Skip("CPU without AVX2+FMA: only the scalar path exists")
	}
}

// sameBits32 is equality under math.Float32bits, except that any NaN
// equals any NaN: which payload an operation propagates is the one
// thing the numerical contract leaves open.
func sameBits32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

func sameBits64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

func vmathEq(t *testing.T, name string, src, got, want []float32) {
	t.Helper()
	for i := range want {
		if !sameBits32(got[i], want[i]) {
			t.Fatalf("%s: input %v (%#08x) at %d: vector %v (%#08x), scalar %v (%#08x)", name,
				src[i], math.Float32bits(src[i]), i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// vmathKernels pairs each kernel with the scalar loop it must match.
// Both return the softmax sum (0 for the element-wise kernels).
var vmathKernels = []struct {
	name     string
	vec, ref func(dst, src []float32) float64
}{
	{"gelu",
		func(dst, src []float32) float64 { gelu(dst, src); return 0 },
		func(dst, src []float32) float64 {
			for j, x := range src {
				dst[j] = geluScalar(x)
			}
			return 0
		}},
	{"geluGrad",
		func(dst, src []float32) float64 { geluGrad(dst, src); return 0 },
		func(dst, src []float32) float64 {
			for j, x := range src {
				dst[j] = geluGradScalar(x)
			}
			return 0
		}},
	{"softmaxExp",
		func(dst, src []float32) float64 { return softmaxExp(dst, src, 0) },
		func(dst, src []float32) float64 { return softmaxExpScalar(dst, src, 0, 0) }},
}

// TestVMathSweep feeds float32 bit patterns 0, stride, 2*stride, …
// through each kernel and its scalar oracle. At -vmath.stride=1 that
// is every float32 there is — the proof that "same bits" holds, and
// the alarm if a future toolchain changes math.Exp or math.Tanh.
//
// GELU and GELU' have no output but the float32, so equal float32s for
// every input is the whole claim. The softmax pass also returns a
// float64 sum that depends on the lanes' unrounded values, so the
// "exp64" sweep checks those: a group holding one value and three
// -Inf (each exactly 0) returns sum = 0+…+ev = ev, which must be
// math.Exp's float64 bit for bit, in whichever lane the value sits.
// With every ev equal and the additions sequential, any row's sum is.
func TestVMathSweep(t *testing.T) {
	requireVMath(t)
	stride := *vmathStride
	if stride == 0 {
		t.Fatal("-vmath.stride must be positive")
	}
	const parts = 8
	sweep := func(name string, run func(t *testing.T, lo, hi uint64)) {
		for p := uint64(0); p < parts; p++ {
			t.Run(fmt.Sprintf("%s/%d", name, p), func(t *testing.T) {
				t.Parallel()
				span := uint64(1<<32) / parts
				run(t, (p*span+stride-1)/stride*stride, (p+1)*span)
			})
		}
	}
	for _, k := range vmathKernels {
		sweep(k.name, func(t *testing.T, lo, hi uint64) {
			src := make([]float32, 4096)
			got := make([]float32, len(src))
			want := make([]float32, len(src))
			for b := lo; b < hi; {
				n := 0
				for ; n < len(src) && b < hi; b += stride {
					src[n] = math.Float32frombits(uint32(b))
					n++
				}
				gs, ws := k.vec(got[:n], src[:n]), k.ref(want[:n], src[:n])
				vmathEq(t, k.name, src[:n], got, want[:n])
				if !sameBits64(gs, ws) {
					t.Fatalf("%s: sum over the block ending before %#08x: vector %v, scalar %v", k.name, b, gs, ws)
				}
			}
		})
	}
	sweep("exp64", func(t *testing.T, lo, hi uint64) {
		negInf := float32(math.Inf(-1))
		var got [4]float32
		for b := lo; b < hi; b += stride {
			v := math.Float32frombits(uint32(b))
			src := [4]float32{negInf, negInf, negInf, negInf}
			lane := b / stride % 4
			src[lane] = v
			sum, want := softmaxExp(got[:], src[:], 0), math.Exp(float64(v))
			if !sameBits64(sum, want) || !sameBits32(got[lane], float32(want)) {
				t.Fatalf("exp(%v (%#08x)) in lane %d: vector %v (%#016x) -> %v, math.Exp %v (%#016x) -> %v", v, uint32(b), lane,
					sum, math.Float64bits(sum), got[lane], want, math.Float64bits(want), float32(want))
			}
		}
	})
}

// TestVMathTailsAndOffsets runs every length 0…67 at every 4-byte
// offset 0…7 (the kernels use unaligned loads), with inputs that put
// all three tanh branches, both exp ranges and the non-finite values
// side by side in one group of four.
func TestVMathTailsAndOffsets(t *testing.T) {
	requireVMath(t)
	r := NewRNG(23)
	special := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		hwNaN, 0.5, -0.7, 0.78, 30, -30, 60, -60, 1e-40, -1e-30, 1e30, -725, -750, -100, 88.7, 800}
	for n := 0; n <= 67; n++ {
		for off := 0; off < 8; off++ {
			src := Uniform(r, -3, 3, n+off).Data[off:]
			for i := range src {
				if r.Intn(3) == 0 {
					src[i] = special[r.Intn(len(special))]
				}
			}
			for _, k := range vmathKernels {
				got := make([]float32, n+off+1)[off:] // dst may be longer than src
				want := make([]float32, n)
				gs, ws := k.vec(got, src), k.ref(want, src)
				name := fmt.Sprintf("%s n=%d off=%d", k.name, n, off)
				vmathEq(t, name, src, got, want)
				if !sameBits64(gs, ws) {
					t.Fatalf("%s: sum: vector %v, scalar %v", name, gs, ws)
				}
				if got[n] != 0 {
					t.Fatalf("%s: wrote past len(src)", name)
				}
			}
		}
	}
}

// softmaxTestRow generates attention- and router-shaped score rows
// salted with what the exp kernel treats specially relative to the row
// maximum: -Inf (a causal mask), gaps of 720…760 (the flush-to-zero
// range and the subnormal-result band just above it, which goes back
// to math.Exp), zeros of both signs, huge and tiny scales. Kind 0 is
// the all-masked row (NaN out, as the scalar loop gives), kind 1 holds
// a NaN, kind 2 is masked from a random column on.
func softmaxTestRow(r *RNG, n, kind int) []float32 {
	row := Uniform(r, -4, 4, n).Data
	for i := range row {
		switch r.Intn(12) {
		case 0:
			row[i] = float32(math.Inf(-1))
		case 1:
			row[i] = -720 - 40*r.Float32()
		case 2:
			row[i] = 0
		case 3:
			row[i] = float32(math.Copysign(0, -1))
		case 4:
			row[i] *= 1e30
		case 5:
			row[i] *= 1e-30
		}
	}
	switch kind {
	case 0:
		for i := range row {
			row[i] = float32(math.Inf(-1))
		}
	case 1:
		row[r.Intn(n)] = hwNaN
	case 2:
		for i := r.Intn(n) + 1; i < n; i++ {
			row[i] = float32(math.Inf(-1))
		}
	}
	return row
}

func TestSoftmaxRowBitIdentical(t *testing.T) {
	requireVMath(t)
	r := NewRNG(29)
	for n := 1; n <= 200; n++ {
		for kind := 0; kind < 20; kind++ {
			row := softmaxTestRow(r, n, kind)
			want := make([]float32, n)
			var wm float32
			var ws float64
			scalarMath(func() { wm, ws = SoftmaxRow(want, row) })
			for off := 0; off < 8; off++ {
				src := append(make([]float32, off), row...)[off:]
				got := make([]float32, n+off)[off:]
				gm, gs := SoftmaxRow(got, src)
				name := fmt.Sprintf("SoftmaxRow n=%d kind=%d off=%d", n, kind, off)
				vmathEq(t, name, src, got, want)
				if !sameBits32(gm, wm) || !sameBits64(gs, ws) {
					t.Fatalf("%s: max, sum = %v, %v; scalar row %v, %v", name, gm, gs, wm, ws)
				}
			}
			// In place, as the KV-cache attention calls it.
			SoftmaxRow(row, row)
			vmathEq(t, fmt.Sprintf("SoftmaxRow in place n=%d kind=%d", n, kind), row, row, want)
		}
	}
}

// TestVMathOpsMatchScalar checks the tensor-level entry points, whose
// Parallel chunk boundaries fall anywhere: a chunk's last len%4
// elements go through the scalar functions, so where the cuts land
// must not show.
func TestVMathOpsMatchScalar(t *testing.T) {
	requireVMath(t)
	defer setMaxWorkers(setMaxWorkers(3))
	r := NewRNG(31)
	x := Randn(r, 1.5, 37, 173) // 6401 elements: three uneven chunks
	rows := Randn(r, 3, 37, 173)
	for _, op := range []struct {
		name string
		f    func() *Tensor
	}{
		{"GELU", func() *Tensor { return GELU(x) }},
		{"GELUGrad", func() *Tensor { return GELUGrad(x) }},
		{"SoftmaxRows", func() *Tensor { return SoftmaxRows(rows) }},
	} {
		vec := op.f()
		var ref *Tensor
		scalarMath(func() { ref = op.f() })
		bitwiseEq(t, op.name, vec.Data, ref.Data)
	}
}
