package train

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"bagualu/internal/sunway"
)

func newCkptTrainer(t *testing.T, seed uint64) *Trainer {
	t.Helper()
	model, corpus := tinyModel(seed)
	tr, err := NewTrainer(model, corpus, NewAdam(0.01), Config{
		Batch: 4, Precision: sunway.Mixed, Schedule: ConstantLR(3e-3), ClipNorm: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// A trainer restored from a checkpoint must produce the *identical*
// loss curve as the original continuing past the save point: weights,
// Adam moments, FP32 masters, loss-scale state, and the data-order
// RNG all round-trip.
func TestResumeBitExact(t *testing.T) {
	tr := newCkptTrainer(t, 11)
	for i := 0; i < 8; i++ {
		tr.Step()
	}
	var buf bytes.Buffer
	if err := tr.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	var want []float32
	for i := 0; i < 8; i++ {
		want = append(want, tr.Step().Loss)
	}

	tr2 := newCkptTrainer(t, 999) // different seed: everything must come from the stream
	if err := tr2.LoadCheckpoint(bytes.NewReader(saved)); err != nil {
		t.Fatal(err)
	}
	if tr2.StepCount() != 8 {
		t.Fatalf("restored StepCount = %d, want 8", tr2.StepCount())
	}
	for i := 0; i < 8; i++ {
		got := tr2.Step().Loss
		if got != want[i] {
			t.Fatalf("step %d: resumed loss %v != original %v", i, got, want[i])
		}
	}
}

// Flipping one byte of a tensor payload must surface as a typed
// CorruptError naming the damaged tensor, not as silent divergence.
func TestCheckpointDetectsCorruption(t *testing.T) {
	tr := newCkptTrainer(t, 12)
	tr.Step()
	var buf bytes.Buffer
	if err := tr.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-6] ^= 0x40 // inside the last tensor's payload/CRC bytes
	err := tr.LoadCheckpoint(bytes.NewReader(raw))
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("want CorruptError, got %v", err)
	}
	if ce.Tensor == "" {
		t.Fatal("CorruptError does not name the tensor")
	}
}

// A stream written in a retired format (version 1 or 2) or a future
// one must be rejected with a versionError before any tensor is read,
// never misread as the current layout.
func TestCheckpointRejectsOtherVersions(t *testing.T) {
	tr := newCkptTrainer(t, 13)
	var buf bytes.Buffer
	if err := tr.SaveCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	before := tr.Params()[0].W.Clone()
	for _, v := range []uint32{1, 2, ckptVersion + 1} {
		binary.LittleEndian.PutUint32(raw[4:8], v)
		err := tr.LoadCheckpoint(bytes.NewReader(raw))
		var ve *versionError
		if !errors.As(err, &ve) || ve.got != v {
			t.Fatalf("version %d: want versionError, got %v", v, err)
		}
	}
	for j, w := range tr.Params()[0].W.Data {
		if w != before.Data[j] {
			t.Fatalf("rejected stream modified weight %d", j)
		}
	}
}

// A weights-only stream (no optimizer moments, no masters) must still
// restore into a Mixed trainer: weights load, header scalars apply,
// masters re-snapshot from the loaded weights, moments re-warm.
func TestWeightsOnlyStreamRestores(t *testing.T) {
	tr := newCkptTrainer(t, 13)
	tr.Step()
	var buf bytes.Buffer
	if err := Save(&buf, Header{Step: 7, LossScale: 512}, tr.Params()); err != nil {
		t.Fatal(err)
	}

	tr2 := newCkptTrainer(t, 14)
	if err := tr2.LoadCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if tr2.StepCount() != 7 {
		t.Fatalf("restore StepCount = %d, want 7", tr2.StepCount())
	}
	if tr2.MP.Scale != 512 {
		t.Fatalf("restore Scale = %v, want 512", tr2.MP.Scale)
	}
	for i, p := range tr2.Params() {
		for j := range p.W.Data {
			if p.W.Data[j] != tr.Params()[i].W.Data[j] {
				t.Fatalf("restore weight mismatch at %s[%d]", p.Name, j)
			}
		}
	}
	// And the restored trainer still trains.
	if m := tr2.Step(); m.Step != 7 {
		t.Fatalf("post-restore step index %d", m.Step)
	}
}

// SaveFile must commit via temp-file+rename: a stale temp file from a
// crashed writer never shadows the real checkpoint, and a successful
// save leaves no temp debris.
func TestSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	tr := newCkptTrainer(t, 15)
	if err := SaveFile(path, tr.checkpointHeader(), tr.CheckpointParams()); err != nil {
		t.Fatal(err)
	}
	// Simulate a writer that died mid-stream: truncated temp file next
	// to the real one.
	if err := os.WriteFile(path+".tmp-dead", []byte{0xA1, 0x60}, 0o644); err != nil {
		t.Fatal(err)
	}
	tr2 := newCkptTrainer(t, 16)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := tr2.LoadCheckpoint(f); err != nil {
		t.Fatalf("checkpoint unreadable despite atomic protocol: %v", err)
	}
	ents, _ := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if len(ents) != 1 { // only the deliberately planted corpse
		t.Fatalf("temp debris after successful save: %v", ents)
	}
}
