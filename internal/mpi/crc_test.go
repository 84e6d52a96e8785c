package mpi

import (
	"hash/crc32"
	"math"
	"testing"

	"bagualu/internal/tensor"
)

// perElementPayloadCRC is payloadCRC as it was before the bulk kernel:
// one hash.Write per element.
func perElementPayloadCRC(m *message) uint32 {
	h := crc32.NewIEEE()
	var b [8]byte
	for _, v := range m.data {
		u := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:4])
	}
	for _, v := range m.u16 {
		b[0], b[1] = byte(v), byte(v>>8)
		h.Write(b[:2])
	}
	for _, v := range m.ints {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:8])
	}
	return h.Sum32()
}

// Frames checksummed by one build must verify under the other: the
// chunked CRC equals the per-element one on every payload kind, alone
// and combined, at lengths around the chunk boundary.
func TestPayloadCRCBulkMatchesPerElement(t *testing.T) {
	r := tensor.NewRNG(9)
	for _, n := range []int{0, 1, 511, 512, 513, 1024, 2049, 4100} {
		data := make([]float32, n)
		u16 := make([]uint16, n)
		ints := make([]int, n)
		for i := 0; i < n; i++ {
			data[i] = math.Float32frombits(uint32(r.Uint64()))
			u16[i] = uint16(r.Uint64())
			ints[i] = int(r.Uint64())
		}
		for _, m := range []*message{{data: data}, {u16: u16}, {ints: ints}, {data: data, u16: u16, ints: ints}} {
			if got, want := payloadCRC(m), perElementPayloadCRC(m); got != want {
				t.Fatalf("n=%d: bulk crc %08x, per-element %08x", n, got, want)
			}
		}
	}
}
