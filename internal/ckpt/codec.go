package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"bagualu/internal/nn"
)

// Shard byte format: a little-endian prologue (magic, version, the
// Header fields, the record count) followed by one record per tensor.
//
// The prologue is what makes a checkpoint sufficient for *bit-exact*
// resume: it carries the dynamic loss-scale state, the optimizer update
// count (Adam/LAMB bias correction depends on it) and the data-order
// RNG position, while the tensor list includes optimizer moments and
// FP32 masters (see train.Trainer.CheckpointParams).
//
// Every record is a *range* of a logical tensor: name, full shape, the
// flat offsets [lo, hi), hi-lo payload floats and a CRC32 of the
// payload. Full tensors write lo=0, hi=N. Ranges are what let a
// ZeRO-sharded optimizer checkpoint restore across layouts — each rank
// writes its moment shard under the name the unsharded optimizer uses —
// and what deduplicates replicated state: R replicas each write a 1/R
// range of a tensor they all hold (train.Trainer.CheckpointShard).
// Because every record carries its own CRC, a reader that knows where a
// payload starts (the manifest's index) fetches and verifies it alone.
//
// This is format version 3, the only one read: a shard with any other
// version word is rejected with a versionError rather than misread.
const (
	ckptMagic   = 0xBA60A1 // "BaGuaLu"
	ckptVersion = 3

	// headerSize is the byte length of the prologue. Record offsets
	// count from the start of the shard, so the first record begins here.
	headerSize = 48
)

// Header carries run metadata stored alongside the weights.
type Header struct {
	Step         int64
	LossScale    float32
	GoodSteps    int32  // loss-scale growth progress
	SkippedSteps int32  // overflow-skipped step count
	OptSteps     int64  // optimizer updates applied (bias correction)
	RNGState     uint64 // data-order RNG position
}

// versionError rejects a shard whose format version this build does
// not read.
type versionError struct{ got uint32 }

func (e *versionError) Error() string {
	return fmt.Sprintf("unsupported checkpoint version %d (this build reads version %d)", e.got, ckptVersion)
}

// CorruptError reports a tensor record whose payload checksum does
// not match, naming the damaged tensor.
type CorruptError struct {
	Tensor    string
	Want, Got uint32
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("checkpoint tensor %q corrupted (crc %08x, want %08x)", e.Tensor, e.Got, e.Want)
}

// encodeShard writes the prologue and one record per param to w and
// reports where each record's payload starts: offsets[i] is the byte
// offset, from the start of the shard, of params[i]'s first payload
// float. A param whose FullShape is set is written as the range
// [ShardLo, ShardLo+len) of the logical tensor; ordinary params cover
// their whole tensor.
func encodeShard(w io.Writer, hdr Header, params []*nn.Param) (offsets []int64, err error) {
	bw := bufio.NewWriter(w)
	for _, v := range []any{
		uint32(ckptMagic), uint32(ckptVersion),
		hdr.Step, hdr.LossScale,
		hdr.GoodSteps, hdr.SkippedSteps, hdr.OptSteps, hdr.RNGState,
		uint32(len(params)),
	} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return nil, err
		}
	}
	offsets = make([]int64, len(params))
	at := int64(headerSize)
	for i, p := range params {
		shape := p.W.Shape
		if p.FullShape != nil {
			shape = p.FullShape
		}
		lo := p.ShardLo
		hi := lo + len(p.W.Data)
		if lo < 0 || hi > p.FullLen() {
			return nil, fmt.Errorf("ckpt: param %q shard [%d,%d) exceeds full length %d", p.Name, lo, hi, p.FullLen())
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(p.Name))); err != nil {
			return nil, err
		}
		if _, err := bw.WriteString(p.Name); err != nil {
			return nil, err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(shape))); err != nil {
			return nil, err
		}
		for _, d := range shape {
			if err := binary.Write(bw, binary.LittleEndian, uint32(d)); err != nil {
				return nil, err
			}
		}
		for _, v := range []uint64{uint64(lo), uint64(hi)} {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return nil, err
			}
		}
		// name length + name, rank + dims, lo + hi.
		at += 4 + int64(len(p.Name)) + 4 + 4*int64(len(shape)) + 16
		offsets[i] = at
		if err := binary.Write(bw, binary.LittleEndian, p.W.Data); err != nil {
			return nil, err
		}
		if err := binary.Write(bw, binary.LittleEndian, tensorCRC(p.W.Data)); err != nil {
			return nil, err
		}
		at += 4*int64(len(p.W.Data)) + 4
	}
	return offsets, bw.Flush()
}

// tensorCRC checksums a tensor payload exactly as it sits on disk
// (little-endian float32 bytes), a chunk of bytes per crc32.Update so
// the table-driven bulk kernel runs instead of four bytes per call.
func tensorCRC(data []float32) uint32 {
	var crc uint32
	var buf [4096]byte
	for len(data) > 0 {
		n := min(len(data), len(buf)/4)
		for i, v := range data[:n] {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		crc = crc32.Update(crc, crc32.IEEETable, buf[:4*n])
		data = data[n:]
	}
	return crc
}

// decodeHeader parses a shard's headerSize-byte prologue and returns
// its run metadata, rejecting a foreign magic or version.
func decodeHeader(prologue []byte) (Header, error) {
	le := binary.LittleEndian
	if magic := le.Uint32(prologue[0:]); magic != ckptMagic {
		return Header{}, fmt.Errorf("bad checkpoint magic %#x", magic)
	}
	if version := le.Uint32(prologue[4:]); version != ckptVersion {
		return Header{}, &versionError{got: version}
	}
	return Header{
		Step:         int64(le.Uint64(prologue[8:])),
		LossScale:    math.Float32frombits(le.Uint32(prologue[16:])),
		GoodSteps:    int32(le.Uint32(prologue[20:])),
		SkippedSteps: int32(le.Uint32(prologue[24:])),
		OptSteps:     int64(le.Uint64(prologue[28:])),
		RNGState:     le.Uint64(prologue[36:]),
	}, nil
}

// readPayload reads one record's payload — len(dst) floats at byte
// offset off of r, as encodeShard reported it — into dst and verifies
// the CRC32 that follows it. name only labels the CorruptError. It
// issues exactly one ReadAt of 4*len(dst)+4 bytes.
func readPayload(r io.ReaderAt, off int64, name string, dst []float32) error {
	raw := make([]byte, 4*len(dst)+4)
	if _, err := r.ReadAt(raw, off); err != nil {
		return fmt.Errorf("checkpoint tensor %q at offset %d: %w", name, off, err)
	}
	body := raw[:4*len(dst)]
	want := binary.LittleEndian.Uint32(raw[len(body):])
	if got := crc32.ChecksumIEEE(body); got != want {
		return &CorruptError{Tensor: name, Want: want, Got: got}
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[4*i:]))
	}
	return nil
}
