//go:build amd64 && !purego

package half

import (
	"math"
	"testing"
)

// The F16C kernels promise FromFloat32's bits, the decode table's
// bits and quantizeSlice's overflow flag. FromFloat32 is the oracle;
// the flag is also compared against the generic path by forcing
// useF16C off.

func requireF16C(t *testing.T) {
	t.Helper()
	if !useF16C {
		t.Skip("CPU without AVX2+F16C: only the generic path exists")
	}
}

// checkVector runs EncodeSlice and QuantizeSliceFast over in and
// compares every lane and the overflow flag with the scalar oracle.
// enc and q are scratch at least as long as in.
func checkVector(t *testing.T, in []float32, enc []uint16, q []float32) {
	t.Helper()
	EncodeSlice(enc, in)
	q = q[:copy(q, in)]
	overflow := QuantizeSliceFast(q)
	wantOverflow := false
	for i, v := range in {
		h := FromFloat32(v)
		if enc[i] != uint16(h) {
			t.Fatalf("EncodeSlice(%#08x) lane %d = %#04x, FromFloat32 = %#04x", math.Float32bits(v), i, enc[i], h)
		}
		if got, want := math.Float32bits(q[i]), math.Float32bits(decodeTable[h]); got != want {
			t.Fatalf("QuantizeSliceFast(%#08x) lane %d = %#08x, table = %#08x", math.Float32bits(v), i, got, want)
		}
		if h.IsInf() && !math.IsInf(float64(v), 0) {
			wantOverflow = true
		}
	}
	if overflow != wantOverflow {
		t.Fatalf("QuantizeSliceFast overflow = %v, want %v (first lane %#08x)", overflow, wantOverflow, math.Float32bits(in[0]))
	}
}

// TestF16CBoundaries walks every float32 exponent with the mantissas
// that sit on FP16 rounding boundaries — ties, one either side of a
// tie, every single-bit and all-ones-below-a-bit pattern (the ties of
// the subnormal range, whose shift varies), and the top 4097 mantissas
// that round up into the next exponent or, at exponent 255, are NaNs
// with every low-payload pattern. Each value sits alone in a zeroed
// 8-vector, in a lane that varies, so one lane's overflow or NaN
// cannot mask another's.
func TestF16CBoundaries(t *testing.T) {
	requireF16C(t)
	decodeOnce.Do(buildDecodeTable)
	mans := []uint32{0, 1, 0xfff, 0x1000, 0x1001, 0x1fff, 0x2000, 0x2001, 0x3000, 0x3fffff, 0x400000, 0x400001}
	for b := uint(0); b < 23; b++ {
		mans = append(mans, 1<<b, 1<<b-1, 1<<b+1, 3<<b&0x7fffff)
	}
	for m := uint32(0x7fefff); m <= 0x7fffff; m++ {
		mans = append(mans, m)
	}
	var vec, q [8]float32
	var enc [8]uint16
	lane := 0
	for exp := uint32(0); exp < 256; exp++ {
		for _, man := range mans {
			for _, sign := range []uint32{0, 1 << 31} {
				vec[lane] = math.Float32frombits(sign | exp<<23 | man)
				checkVector(t, vec[:], enc[:], q[:])
				vec[lane] = 0
				lane = (lane + 1) & 7
			}
		}
	}
}

// TestF16CRandomBits drives 2^23 random bit patterns — NaNs,
// infinities and subnormals at their natural 1-in-256 rates — through
// slices whose length is not a multiple of 8, so the scalar tail and
// the vector body meet inside every call, and compares the vector
// path's overflow flag with the generic path's.
func TestF16CRandomBits(t *testing.T) {
	requireF16C(t)
	const chunk = 4096 + 5
	in, simd, gen := make([]float32, chunk), make([]float32, chunk), make([]float32, chunk)
	enc := make([]uint16, chunk)
	state := uint64(0x9e3779b97f4a7c15)
	for done := 0; done < 1<<23; done += chunk {
		for i := range in {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			in[i] = math.Float32frombits(uint32(state >> 32))
		}
		checkVector(t, in, enc, simd)

		copy(simd, in)
		copy(gen, in)
		simdFlag := QuantizeSliceFast(simd)
		useF16C = false
		genFlag := QuantizeSliceFast(gen)
		useF16C = true
		if simdFlag != genFlag {
			t.Fatalf("overflow flag: F16C %v, generic %v", simdFlag, genFlag)
		}
	}
}
