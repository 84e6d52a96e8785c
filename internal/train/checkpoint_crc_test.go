package train

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"

	"bagualu/internal/nn"
	"bagualu/internal/tensor"
)

// perElementCRC is the checksum as it was computed before the bulk
// kernel: four little-endian bytes per hash.Write.
func perElementCRC(data []float32) uint32 {
	h := crc32.NewIEEE()
	var b [4]byte
	for _, v := range data {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return h.Sum32()
}

// The chunked CRC must equal the per-element one bit for bit — on-disk
// checkpoints keep verifying — at lengths around the chunk boundary.
func TestTensorCRCBulkMatchesPerElement(t *testing.T) {
	r := tensor.NewRNG(5)
	for _, n := range []int{0, 1, 3, 1023, 1024, 1025, 2048, 5000} {
		data := make([]float32, n)
		for i := range data {
			data[i] = math.Float32frombits(uint32(r.Uint64()))
		}
		if got, want := tensorCRC(data), perElementCRC(data); got != want {
			t.Fatalf("n=%d: bulk crc %08x, per-element %08x", n, got, want)
		}
	}
}

func BenchmarkTensorCRC(b *testing.B) {
	data := make([]float32, 1<<18)
	r := tensor.NewRNG(5)
	for i := range data {
		data[i] = r.Norm()
	}
	b.SetBytes(4 * int64(len(data)))
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += tensorCRC(data)
	}
	_ = sink
}

// SaveIndexed's offsets must point at the payloads: ReadPayload at each
// returns the record's floats, whole tensor or range view, and a flipped
// payload byte is a CorruptError naming the tensor.
func TestSaveIndexedOffsetsLocatePayloads(t *testing.T) {
	fill := func(p *nn.Param, base float32) *nn.Param {
		for i := range p.W.Data {
			p.W.Data[i] = base + float32(i)
		}
		return p
	}
	params := []*nn.Param{
		fill(&nn.Param{Name: "a.w", W: tensor.New(3, 5)}, 100),
		fill(&nn.Param{Name: "long.name.of.a.view", W: tensor.New(7), FullShape: []int{4, 6}, ShardLo: 9}, 200),
		fill(&nn.Param{Name: "b", W: tensor.New(2)}, 300),
	}
	var buf bytes.Buffer
	offsets, err := SaveIndexed(&buf, Header{Step: 9, RNGState: 77}, params)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := ReadHeader(bytes.NewReader(buf.Bytes()[:HeaderSize]))
	if err != nil || hdr.Step != 9 || hdr.RNGState != 77 {
		t.Fatalf("ReadHeader = %+v, %v", hdr, err)
	}
	for i, p := range params {
		got := make([]float32, len(p.W.Data))
		if err := ReadPayload(bytes.NewReader(buf.Bytes()), offsets[i], p.Name, got); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for j := range got {
			if got[j] != p.W.Data[j] {
				t.Fatalf("%s[%d] = %v, want %v", p.Name, j, got[j], p.W.Data[j])
			}
		}
	}
	// The stream is still what Load reads.
	if _, err := Load(bytes.NewReader(buf.Bytes()), []*nn.Param{{Name: "a.w", W: tensor.New(3, 5)}}); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	raw[offsets[1]+6] ^= 1
	var ce *CorruptError
	if err := ReadPayload(bytes.NewReader(raw), offsets[1], params[1].Name, make([]float32, 7)); !errors.As(err, &ce) || ce.Tensor != params[1].Name {
		t.Fatalf("damaged payload: %v; want CorruptError naming %s", err, params[1].Name)
	}
}
