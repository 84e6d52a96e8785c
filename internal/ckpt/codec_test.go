package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"bagualu/internal/mpi"
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

// encodeShard's offsets must point at the payloads: readPayload at each
// returns the record's floats, whole tensor or range view, and a flipped
// payload byte is a CorruptError naming the tensor.
func TestEncodeOffsetsLocatePayloads(t *testing.T) {
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
	offsets, err := encodeShard(&buf, Header{Step: 9, RNGState: 77}, params)
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := decodeHeader(buf.Bytes()[:headerSize])
	if err != nil || hdr.Step != 9 || hdr.RNGState != 77 {
		t.Fatalf("decodeHeader = %+v, %v", hdr, err)
	}
	for i, p := range params {
		got := make([]float32, len(p.W.Data))
		if err := readPayload(bytes.NewReader(buf.Bytes()), offsets[i], p.Name, got); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for j := range got {
			if got[j] != p.W.Data[j] {
				t.Fatalf("%s[%d] = %v, want %v", p.Name, j, got[j], p.W.Data[j])
			}
		}
	}
	raw := append([]byte(nil), buf.Bytes()...)
	raw[offsets[1]+6] ^= 1
	var ce *CorruptError
	if err := readPayload(bytes.NewReader(raw), offsets[1], params[1].Name, make([]float32, 7)); !errors.As(err, &ce) || ce.Tensor != params[1].Name {
		t.Fatalf("damaged payload: %v; want CorruptError naming %s", err, params[1].Name)
	}
}

// A shard written in a retired format (version 1 or 2) or a future one
// must be rejected with a versionError from the adopted shard's
// prologue, before any tensor is read, never misread as the current
// layout.
func TestRestoreRejectsOtherVersions(t *testing.T) {
	dir := t.TempDir()
	if err := Save(dir, 1, Header{Step: 1}, rankParams(0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(StepDir(dir, 1), ShardFile(0))
	raw, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	params := rankParams(0, 1, 2)
	for _, p := range params {
		p.W.Data[0] = -1
	}
	for _, v := range []uint32{1, 2, ckptVersion + 1} {
		binary.LittleEndian.PutUint32(raw[4:8], v)
		if err := os.WriteFile(shard, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var ve *versionError
		if _, err := Restore(dir, 1, 0, params); !errors.As(err, &ve) || ve.got != v {
			t.Fatalf("version %d: want versionError, got %v", v, err)
		}
	}
	for _, p := range params {
		if p.W.Data[0] != -1 {
			t.Fatalf("rejected shard modified %s", p.Name)
		}
	}
}

// pinHeader and pinParams are the state the parent commit of the
// one-package refactor wrote to testdata/pin: two ranks, each holding
// half of dense.w as a range view plus one whole expert tensor.
var pinHeader = Header{Step: 7, LossScale: 1024, GoodSteps: 3, SkippedSteps: 2, OptSteps: 5, RNGState: 0xDEADBEEFCAFE}

func pinValue(name string, i int) float32 {
	return float32(len(name))*10 + float32(i)*0.25 - 1
}

func pinParams(rank int) []*nn.Param {
	dense := &nn.Param{Name: "dense.w", W: tensor.New(3), FullShape: []int{2, 3}, ShardLo: 3 * rank}
	expert := &nn.Param{Name: fmt.Sprintf("expert.%d.w", rank), W: tensor.New(4)}
	for _, p := range []*nn.Param{dense, expert} {
		for i := range p.W.Data {
			p.W.Data[i] = pinValue(p.Name, p.ShardLo+i)
		}
	}
	return []*nn.Param{dense, expert}
}

// The bytes on disk do not change: a step directory written before the
// codec moved into this package restores bit for bit — header and every
// element, whichever shard the header is adopted from — and writing the
// same state today reproduces its files byte for byte.
func TestFormatPin(t *testing.T) {
	const pin = "testdata/pin"
	for shard := 0; shard < 2; shard++ {
		params := []*nn.Param{
			{Name: "dense.w", W: tensor.New(2, 3)},
			{Name: "expert.0.w", W: tensor.New(4)},
			{Name: "expert.1.w", W: tensor.New(4)},
		}
		res, err := Restore(pin, 7, shard, params)
		if err != nil {
			t.Fatal(err)
		}
		if res.Header != pinHeader || res.Shards != 2 {
			t.Fatalf("shard %d: header %+v of %d shards, want %+v of 2", shard, res.Header, res.Shards, pinHeader)
		}
		for _, p := range params {
			for i, v := range p.W.Data {
				if want := pinValue(p.Name, i); math.Float32bits(v) != math.Float32bits(want) {
					t.Fatalf("shard %d: %s[%d] = %v, want %v", shard, p.Name, i, v, want)
				}
			}
		}
	}

	dir := t.TempDir()
	mpi.NewWorld(2, nil).Run(func(c *mpi.Comm) {
		wr := NewWriter(Config{Dir: dir}, c)
		if err := wr.Save(7, pinHeader, pinParams(c.Rank()), Layout{WorldSize: 2, DataParallel: 1, ExpertParallel: 2}); err != nil {
			t.Error(err)
		}
	})
	for _, name := range []string{ShardFile(0), ShardFile(1), manifestName} {
		want, err := os.ReadFile(filepath.Join(StepDir(pin, 7), name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(StepDir(dir, 7), name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the pinned file:\n got %x\nwant %x", name, got, want)
		}
	}
}
