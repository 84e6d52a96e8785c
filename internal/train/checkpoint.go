package train

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"bagualu/internal/nn"
)

// Checkpoint format: a little-endian binary stream of named tensors.
// BaGuaLu checkpoints 174T parameters by having each rank write its
// own expert shard; the same property holds here because Save takes
// whatever parameter list the caller owns (a rank passes only its
// local params).
//
// The stream is sufficient for *bit-exact* resume: the header carries
// the dynamic loss-scale state, the optimizer update count (Adam/LAMB
// bias correction depends on it), and the data-order RNG position,
// while the tensor list includes optimizer moments and FP32 masters
// (see Trainer.CheckpointParams). Every tensor record ends with a
// CRC32 of its payload so silent corruption is detected at load time
// and attributed to a specific tensor.
//
// Every record is a *range* of a logical tensor: after the full shape
// it carries [lo, hi) flat offsets and only hi-lo payload floats. Full
// tensors write lo=0, hi=N. This is what lets a ZeRO-sharded optimizer
// checkpoint restore across layouts — each rank writes its moment
// shard as a range record under the same name the unsharded optimizer
// uses, and restore assembles whatever ranges the streams provide into
// whatever views the reader owns (Coverage tracks completeness). The
// same mechanism deduplicates replicated state: R replicas each write a
// 1/R range of a tensor they all hold (Trainer.CheckpointShard), and
// because every record carries its own CRC a reader that knows where a
// record's payload starts (SaveIndexed) can fetch and verify it alone
// (ReadPayload) instead of scanning the stream.
//
// This is format version 3, the only one read: a stream with any other
// version word is rejected with a versionError rather than misread.
const (
	ckptMagic   = 0xBA60A1 // "BaGuaLu"
	ckptVersion = 3
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

// versionError rejects a stream whose format version this build does
// not read.
type versionError struct{ got uint32 }

func (e *versionError) Error() string {
	return fmt.Sprintf("train: unsupported checkpoint version %d (this build reads version %d)", e.got, ckptVersion)
}

// CorruptError reports a tensor record whose payload checksum does
// not match, naming the damaged tensor.
type CorruptError struct {
	Tensor    string
	Want, Got uint32
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("train: checkpoint tensor %q corrupted (crc %08x, want %08x)", e.Tensor, e.Got, e.Want)
}

// HeaderSize is the byte length of the stream prologue: magic, version,
// the Header fields and the record count. Record offsets count from the
// start of the stream, so the first record begins here.
const HeaderSize = 48

// Save writes a checkpoint of params to w. A param whose FullShape is
// set is written as a range record [ShardLo, ShardLo+len) of the
// logical tensor; ordinary params cover their whole tensor.
func Save(w io.Writer, hdr Header, params []*nn.Param) error {
	_, err := SaveIndexed(w, hdr, params)
	return err
}

// SaveIndexed is Save that also reports where each record's payload
// starts: offsets[i] is the byte offset, from the start of the stream,
// of params[i]'s first payload float. The payload is followed by its
// CRC32, so ReadPayload can fetch and verify one record on its own —
// what lets a sharded restore read only the records it needs.
func SaveIndexed(w io.Writer, hdr Header, params []*nn.Param) (offsets []int64, err error) {
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
	at := int64(HeaderSize)
	for i, p := range params {
		shape := p.W.Shape
		if p.FullShape != nil {
			shape = p.FullShape
		}
		lo := p.ShardLo
		hi := lo + len(p.W.Data)
		if lo < 0 || hi > p.FullLen() {
			return nil, fmt.Errorf("train: param %q shard [%d,%d) exceeds full length %d", p.Name, lo, hi, p.FullLen())
		}
		if err := writeString(bw, p.Name); err != nil {
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

// ReadPayload reads one record's payload — len(dst) floats at byte
// offset off of r, as SaveIndexed reported it — into dst and verifies
// the CRC32 that follows it. name only labels the CorruptError. It
// issues exactly one ReadAt of 4*len(dst)+4 bytes.
func ReadPayload(r io.ReaderAt, off int64, name string, dst []float32) error {
	raw := make([]byte, 4*len(dst)+4)
	if _, err := r.ReadAt(raw, off); err != nil {
		return fmt.Errorf("train: checkpoint tensor %q at offset %d: %w", name, off, err)
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

// Coverage accumulates which flat ranges of each named logical tensor
// have been restored, across one or more checkpoint streams. A
// sharded restore unions several shard files' range records into one
// Coverage, then asks whether each local parameter view is fully
// covered.
type Coverage struct {
	spans map[string][]ckptSpan
}

type ckptSpan struct{ lo, hi int }

// NewCoverage returns an empty coverage set.
func NewCoverage() *Coverage { return &Coverage{spans: map[string][]ckptSpan{}} }

func (cv *Coverage) add(name string, lo, hi int) {
	if hi > lo {
		cv.spans[name] = append(cv.spans[name], ckptSpan{lo, hi})
	}
}

// Covers reports whether [lo, hi) of the named tensor has been fully
// restored (hi <= lo trivially holds).
func (cv *Coverage) Covers(name string, lo, hi int) bool {
	if hi <= lo {
		return true
	}
	spans := append([]ckptSpan(nil), cv.spans[name]...)
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	at := lo
	for _, s := range spans {
		if s.lo > at {
			break
		}
		if s.hi > at {
			at = s.hi
		}
		if at >= hi {
			return true
		}
	}
	return at >= hi
}

// ReadHeader parses the HeaderSize-byte prologue of a stream and
// returns its run metadata, rejecting a foreign magic or version.
func ReadHeader(r io.Reader) (Header, error) {
	hdr, _, err := readHeader(r)
	return hdr, err
}

func readHeader(r io.Reader) (hdr Header, count uint32, err error) {
	var magic, version uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return hdr, 0, err
	}
	if magic != ckptMagic {
		return hdr, 0, fmt.Errorf("train: bad checkpoint magic %#x", magic)
	}
	if err := binary.Read(r, binary.LittleEndian, &version); err != nil {
		return hdr, 0, err
	}
	if version != ckptVersion {
		return hdr, 0, &versionError{got: version}
	}
	for _, f := range []any{&hdr.Step, &hdr.LossScale, &hdr.GoodSteps, &hdr.SkippedSteps, &hdr.OptSteps, &hdr.RNGState, &count} {
		if err := binary.Read(r, binary.LittleEndian, f); err != nil {
			return hdr, 0, err
		}
	}
	return hdr, count, nil
}

// LoadIntoCov restores a checkpoint stream into the given name-indexed
// parameter set, recording every restored range in cov. Each record
// covers a flat range [lo, hi) of its logical tensor; the overlap of
// that range with each destination param's own view ([ShardLo,
// ShardLo+len)) is copied, so sharded streams restore into unsharded
// params and vice versa.
// Tensors absent from byName are skipped (checksums still verified);
// params absent from the stream are left untouched.
func LoadIntoCov(r io.Reader, byName map[string]*nn.Param, cov *Coverage) (Header, error) {
	br := bufio.NewReader(r)
	hdr, count, err := readHeader(br)
	if err != nil {
		return hdr, err
	}
	for i := uint32(0); i < count; i++ {
		name, err := readString(br)
		if err != nil {
			return hdr, err
		}
		var rank uint32
		if err := binary.Read(br, binary.LittleEndian, &rank); err != nil {
			return hdr, err
		}
		shape := make([]int, rank)
		full := 1
		for j := range shape {
			var d uint32
			if err := binary.Read(br, binary.LittleEndian, &d); err != nil {
				return hdr, err
			}
			shape[j] = int(d)
			full *= int(d)
		}
		var l, h uint64
		for _, f := range []*uint64{&l, &h} {
			if err := binary.Read(br, binary.LittleEndian, f); err != nil {
				return hdr, err
			}
		}
		lo, hi := int(l), int(h)
		if lo < 0 || hi < lo || hi > full {
			return hdr, fmt.Errorf("train: checkpoint tensor %q has range [%d,%d) of %d", name, lo, hi, full)
		}
		buf := make([]float32, hi-lo)
		if err := binary.Read(br, binary.LittleEndian, buf); err != nil {
			return hdr, err
		}
		var want uint32
		if err := binary.Read(br, binary.LittleEndian, &want); err != nil {
			return hdr, err
		}
		if got := tensorCRC(buf); got != want {
			return hdr, &CorruptError{Tensor: name, Want: want, Got: got}
		}
		p := byName[name]
		if p == nil {
			continue // tensor not owned by this rank
		}
		if p.FullLen() != full {
			return hdr, fmt.Errorf("train: checkpoint tensor %q has %d elements, param has %d", name, full, p.FullLen())
		}
		// Copy the overlap of the record range with this param's view.
		vLo, vHi := p.ShardLo, p.ShardLo+len(p.W.Data)
		oLo, oHi := max(lo, vLo), min(hi, vHi)
		if oLo < oHi {
			copy(p.W.Data[oLo-vLo:oHi-vLo], buf[oLo-lo:oHi-lo])
		}
		if cov != nil {
			cov.add(name, lo, hi)
		}
	}
	return hdr, nil
}

// LoadInto restores a checkpoint stream into the given name-indexed
// parameter set. It returns the header and the names whose local view
// was fully covered by this stream alone — callers decide which
// absences are errors (a sharded restore unions several streams via
// LoadIntoCov before checking completeness; see internal/ckpt).
func LoadInto(r io.Reader, byName map[string]*nn.Param) (Header, []string, error) {
	cov := NewCoverage()
	hdr, err := LoadIntoCov(r, byName, cov)
	if err != nil {
		return hdr, nil, err
	}
	var loaded []string
	for name, p := range byName {
		if cov.Covers(name, p.ShardLo, p.ShardLo+len(p.W.Data)) {
			loaded = append(loaded, name)
		}
	}
	return hdr, loaded, nil
}

// Load restores a checkpoint into params, matching tensors by name.
// Every parameter's view must be fully covered by the stream; extra
// tensors in the stream are ignored.
func Load(r io.Reader, params []*nn.Param) (Header, error) {
	byName := make(map[string]*nn.Param, len(params))
	for _, p := range params {
		byName[p.Name] = p
	}
	cov := NewCoverage()
	hdr, err := LoadIntoCov(r, byName, cov)
	if err != nil {
		return hdr, err
	}
	for _, p := range params {
		if !cov.Covers(p.Name, p.ShardLo, p.ShardLo+len(p.W.Data)) {
			return hdr, fmt.Errorf("train: checkpoint missing tensor %q", p.Name)
		}
	}
	return hdr, nil
}

// SaveFile writes a checkpoint to path atomically: the stream goes to
// a temp file in the same directory and is renamed over path only
// after a successful flush, so a crash mid-write can never destroy
// the previous checkpoint.
func SaveFile(path string, hdr Header, params []*nn.Param) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := Save(f, hdr, params); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile restores a checkpoint from path.
func LoadFile(path string, params []*nn.Param) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, err
	}
	defer f.Close()
	return Load(f, params)
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := w.Write([]byte(s))
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("train: unreasonable name length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
