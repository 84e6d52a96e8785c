package half

import (
	"math"
	"sync"
)

// Table-driven FP16 decode: all 65,536 encodings are precomputed on
// first use, turning per-element decode into a single indexed load —
// the software analogue of the hardware conversion units, and the
// fast path used by bulk tensor quantization.

var (
	decodeOnce  sync.Once
	decodeTable []float32
)

func buildDecodeTable() {
	decodeTable = make([]float32, 1<<16)
	for i := range decodeTable {
		decodeTable[i] = Float16(i).Float32()
	}
}

// QuantizeSliceFast rounds every element of x through FP16 in place
// and reports whether any finite element overflowed to ±Inf: it is
// QuantizeInto(x, x).
func QuantizeSliceFast(x []float32) (overflow bool) { return QuantizeInto(x, x) }

// QuantizeInto writes every element of src, rounded through FP16, to
// dst, eight at a time in hardware where the CPU has F16C and through
// FromFloat32 and the decode table otherwise (bit-identical either
// way), and reports whether any finite element overflowed to ±Inf. dst
// may be src; otherwise src is left alone.
func QuantizeInto(dst, src []float32) (overflow bool) {
	dst = dst[:len(src)]
	n, overflow := quantizeVec(dst, src)
	decodeOnce.Do(buildDecodeTable)
	for i, v := range src[n:] {
		h := FromFloat32(v)
		if h&0x7fff == 0x7c00 && !isInf32(v) {
			overflow = true
		}
		dst[n+i] = decodeTable[h]
	}
	return overflow
}

func isInf32(v float32) bool { return v > math.MaxFloat32 || v < -math.MaxFloat32 }

// EncodeSlice converts src to raw FP16 bit patterns in dst. This is
// the on-the-wire representation used by the mpi codec layer: a bare
// []uint16 payload priced at 2 bytes per element.
func EncodeSlice(dst []uint16, src []float32) {
	n := encodeVec(dst, src)
	for i, v := range src[n:] {
		dst[n+i] = uint16(FromFloat32(v))
	}
}

// DecodeSlice converts raw FP16 bit patterns back to float32, the
// inverse of EncodeSlice: eight at a time with VCVTPH2PS where the CPU
// has F16C and through the decode table otherwise and for the tail.
// Both give Float16.Float32's bits: exact for every number, and a NaN
// of either sign becomes that sign's quiet NaN 0x7fc00000, its payload
// dropped.
func DecodeSlice(dst []float32, src []uint16) {
	n := decodeVec(dst, src)
	if n == len(src) {
		return
	}
	decodeOnce.Do(buildDecodeTable)
	for i, v := range src[n:] {
		dst[n+i] = decodeTable[v]
	}
}
