package half

import (
	"math"
	"testing"
	"testing/quick"
)

// isInf16 reports whether h is ±Inf.
func isInf16(h Float16) bool { return h&0x7fff == 0x7c00 }

// isNaN16 reports whether h is a NaN.
func isNaN16(h Float16) bool { return h&0x7c00 == 0x7c00 && h&0x3ff != 0 }

func TestExactValues(t *testing.T) {
	cases := []struct {
		f float32
		h Float16
	}{
		{0, 0x0000},
		{1, 0x3c00},
		{-1, 0xbc00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7bff},
		{-65504, 0xfbff},
		{6.103515625e-05, 0x0400},       // smallest normal
		{5.960464477539063e-08, 0x0001}, // smallest subnormal
	}
	for _, c := range cases {
		if got := FromFloat32(c.f); got != c.h {
			t.Errorf("FromFloat32(%v) = %#04x, want %#04x", c.f, got, c.h)
		}
		if back := c.h.Float32(); back != c.f {
			t.Errorf("Float32(%#04x) = %v, want %v", c.h, back, c.f)
		}
	}
}

func TestOverflowToInf(t *testing.T) {
	h := FromFloat32(70000)
	if !isInf16(h) {
		t.Fatalf("FromFloat32(70000) = %#04x, want +Inf", h)
	}
	h = FromFloat32(-1e10)
	if !isInf16(h) || h&0x8000 == 0 {
		t.Fatalf("FromFloat32(-1e10) = %#04x, want -Inf", h)
	}
	if !math.IsInf(float64(h.Float32()), -1) {
		t.Fatal("-Inf did not round-trip")
	}
}

func TestNaN(t *testing.T) {
	h := FromFloat32(float32(math.NaN()))
	if !isNaN16(h) {
		t.Fatalf("NaN encoded as %#04x", h)
	}
	if !math.IsNaN(float64(h.Float32())) {
		t.Fatal("NaN did not round-trip")
	}
	if isInf16(h) {
		t.Fatal("NaN classified as Inf")
	}
}

func TestUnderflowToZero(t *testing.T) {
	h := FromFloat32(1e-10)
	if h != 0 {
		t.Fatalf("1e-10 = %#04x, want +0", h)
	}
	h = FromFloat32(-1e-10)
	if h != 0x8000 {
		t.Fatalf("-1e-10 = %#04x, want -0", h)
	}
}

func TestSubnormalRoundTrip(t *testing.T) {
	// All FP16 subnormals are exactly representable in float32.
	for i := 1; i < 0x400; i++ {
		h := Float16(i)
		f := h.Float32()
		if FromFloat32(f) != h {
			t.Fatalf("subnormal %#04x did not round-trip (f=%v)", h, f)
		}
	}
}

func TestAllFiniteFloat16RoundTrip(t *testing.T) {
	// Exhaustive: every finite FP16 must survive
	// Float32()->FromFloat32().
	for i := 0; i < 1<<16; i++ {
		h := Float16(i)
		if isNaN16(h) {
			continue
		}
		if got := FromFloat32(h.Float32()); got != h {
			t.Fatalf("%#04x -> %v -> %#04x", h, h.Float32(), got)
		}
	}
}

func TestRoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1.0 and the next FP16
	// value (1 + 2^-10); must round to even mantissa (1.0).
	f := float32(1) + float32(math.Pow(2, -11))
	if got := FromFloat32(f); got != 0x3c00 {
		t.Fatalf("halfway rounds to %#04x, want 0x3c00 (even)", got)
	}
	// 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; must round
	// up to even (1+2^-9, mantissa 2).
	f = float32(1) + 3*float32(math.Pow(2, -11))
	if got := FromFloat32(f); got != 0x3c02 {
		t.Fatalf("halfway rounds to %#04x, want 0x3c02 (even)", got)
	}
}

func TestPropRoundTripError(t *testing.T) {
	// Relative round-trip error of any representable-magnitude value
	// is at most 2^-11.
	f := func(x float32) bool {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return true
		}
		ax := math.Abs(float64(x))
		if ax > 65000 || ax < 1e-4 {
			return true
		}
		back := float64(FromFloat32(x).Float32())
		return math.Abs(back-float64(x)) <= ax*math.Pow(2, -11)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropMonotone(t *testing.T) {
	// FP16 conversion preserves (non-strict) ordering.
	f := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		fa := float64(FromFloat32(a).Float32())
		fb := float64(FromFloat32(b).Float32())
		return fa <= fb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBFloat16Basic(t *testing.T) {
	cases := []float32{0, 1, -1, 3.140625, 65504, 1e30, -1e-30}
	for _, f := range cases {
		b := BFromFloat32(f)
		back := b.Float32()
		if f == 0 {
			if back != 0 {
				t.Fatalf("bf16(0) = %v", back)
			}
			continue
		}
		rel := math.Abs(float64(back-f) / float64(f))
		if rel > 1.0/128 {
			t.Fatalf("bf16 round trip of %v = %v (rel %v)", f, back, rel)
		}
	}
}

func TestBFloat16NaN(t *testing.T) {
	b := BFromFloat32(float32(math.NaN()))
	if !math.IsNaN(float64(b.Float32())) {
		t.Fatal("bf16 NaN lost")
	}
}

func TestBFloat16WideRange(t *testing.T) {
	// bfloat16 keeps the float32 exponent range: 1e38 must survive.
	b := BFromFloat32(1e38)
	if math.IsInf(float64(b.Float32()), 0) {
		t.Fatal("1e38 overflowed in bf16")
	}
	// ...while FP16 cannot represent it.
	if !isInf16(FromFloat32(1e38)) {
		t.Fatal("1e38 should overflow FP16")
	}
}

func TestEncodeDecode(t *testing.T) {
	src := []float32{1, 2, 3.5, -0.25}
	enc := make([]uint16, len(src))
	EncodeSlice(enc, src)
	dec := make([]float32, len(src))
	DecodeSlice(dec, enc)
	for i := range src {
		if dec[i] != src[i] {
			t.Fatalf("EncodeSlice/DecodeSlice[%d] = %v, want %v", i, dec[i], src[i])
		}
	}
}

// quantizeSlice rounds every element of x through FP16 in place one
// FromFloat32 and Float32 at a time and reports whether any finite
// element overflowed to ±Inf: the oracle of QuantizeSliceFast.
func quantizeSlice(x []float32) (overflow bool) {
	for i, v := range x {
		h := FromFloat32(v)
		if isInf16(h) && !math.IsInf(float64(v), 0) {
			overflow = true
		}
		x[i] = h.Float32()
	}
	return overflow
}

func TestQuantizeSliceOverflowDetection(t *testing.T) {
	x := []float32{1, 2, 3}
	if QuantizeSliceFast(x) {
		t.Fatal("false overflow")
	}
	y := []float32{1, 1e6}
	if !QuantizeSliceFast(y) {
		t.Fatal("missed overflow")
	}
	if !math.IsInf(float64(y[1]), 1) {
		t.Fatalf("overflowed value = %v", y[1])
	}
}

func TestBQuantizeSlice(t *testing.T) {
	x := []float32{1.000001, -2.5}
	BQuantizeSlice(x)
	if x[1] != -2.5 {
		t.Fatalf("exact bf16 value changed: %v", x[1])
	}
}

func BenchmarkFromFloat32(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = FromFloat32(float32(i) * 0.001)
	}
}

func TestFastFloat32MatchesExact(t *testing.T) {
	decodeOnce.Do(buildDecodeTable)
	for i := 0; i < 1<<16; i++ {
		h := Float16(i)
		exact := h.Float32()
		fast := decodeTable[h]
		if isNaN16(h) {
			if !math.IsNaN(float64(fast)) {
				t.Fatalf("%#04x: fast decode lost NaN", h)
			}
			continue
		}
		if fast != exact {
			t.Fatalf("%#04x: fast %v != exact %v", h, fast, exact)
		}
	}
}

// The table decode (DecodeSlice) against the exact conversion.
func TestDecodeFastMatchesDecode(t *testing.T) {
	src := make([]uint16, 256)
	for i := range src {
		src[i] = uint16(FromFloat32(float32(i)*0.37 - 40))
	}
	got := make([]float32, len(src))
	DecodeSlice(got, src)
	for i, h := range src {
		if want := Float16(h).Float32(); got[i] != want {
			t.Fatalf("DecodeSlice[%d] = %v, want %v", i, got[i], want)
		}
	}
}

func TestQuantizeSliceFastMatchesSlow(t *testing.T) {
	mk := func() []float32 {
		x := make([]float32, 512)
		for i := range x {
			x[i] = float32(i)*0.1 - 25
		}
		x[100] = 1e6 // overflow
		return x
	}
	a, b := mk(), mk()
	oa := quantizeSlice(a)
	ob := QuantizeSliceFast(b)
	if oa != ob {
		t.Fatalf("overflow flags differ: %v vs %v", oa, ob)
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsInf(float64(a[i]), 0) && math.IsInf(float64(b[i]), 0)) {
			t.Fatalf("element %d: %v vs %v", i, a[i], b[i])
		}
	}

	// The ends of float32's range: finite values above 3.4e38 overflow
	// FP16 like any other (the fast path once took them for ±Inf and
	// stayed silent), ±Inf itself does not count as overflow, and 65520
	// is the smallest value that rounds up to Inf. Each value is tried
	// alone at lengths 1, 8 and 9 so it meets the scalar tail and,
	// where there is one, the vector body.
	inf := float32(math.Inf(1))
	for _, v := range []float32{
		math.MaxFloat32, math.Nextafter32(math.MaxFloat32, 0), 3.4e38, math.Nextafter32(3.4e38, inf),
		3.3e38, inf, 65504, 65519.996, 65520, 1,
	} {
		for _, v := range []float32{v, -v} {
			for _, n := range []int{1, 8, 9} {
				for at := 0; at < n; at += 7 {
					slow, fast := make([]float32, n), make([]float32, n)
					slow[at], fast[at] = v, v
					so, fo := quantizeSlice(slow), QuantizeSliceFast(fast)
					if so != fo {
						t.Fatalf("%v at %d of %d: overflow slow %v, fast %v", v, at, n, so, fo)
					}
					for i := range slow {
						if math.Float32bits(slow[i]) != math.Float32bits(fast[i]) {
							t.Fatalf("%v at %d of %d: element %d slow %v, fast %v", v, at, n, i, slow[i], fast[i])
						}
					}
				}
			}
		}
	}
}

func BenchmarkDecodeSlice(b *testing.B) {
	src := make([]uint16, 4096)
	dst := make([]float32, 4096)
	for i := range src {
		src[i] = uint16(i * 13)
	}
	decodeOnce.Do(buildDecodeTable) // build the table outside the timer
	b.SetBytes(4096 * 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DecodeSlice(dst, src)
	}
}
