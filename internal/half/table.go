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

// QuantizeSliceFast rounds every element of x through FP16 in place,
// eight at a time in hardware where the CPU has F16C and through
// FromFloat32 and the decode table otherwise (bit-identical either
// way), and reports whether any finite element overflowed to ±Inf.
func QuantizeSliceFast(x []float32) (overflow bool) {
	n, overflow := quantizeVec(x)
	decodeOnce.Do(buildDecodeTable)
	for i, v := range x[n:] {
		h := FromFloat32(v)
		if h&0x7fff == 0x7c00 && !isInf32(v) {
			overflow = true
		}
		x[n+i] = decodeTable[h]
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

// DecodeSlice converts raw FP16 bit patterns back to float32 via the
// decode table, the inverse of EncodeSlice.
func DecodeSlice(dst []float32, src []uint16) {
	decodeOnce.Do(buildDecodeTable)
	for i, v := range src {
		dst[i] = decodeTable[v]
	}
}
