package train

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bagualu/internal/ckpt"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/simnet"
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
// RNG all round-trip — through the same three calls the fault-tolerant
// loop makes.
func TestResumeBitExact(t *testing.T) {
	dir := t.TempDir()
	tr := newCkptTrainer(t, 11)
	for i := 0; i < 8; i++ {
		tr.Step()
	}
	if err := ckpt.Save(dir, 8, tr.CheckpointHeader(), tr.CheckpointParams()); err != nil {
		t.Fatal(err)
	}

	var want []float32
	for i := 0; i < 8; i++ {
		want = append(want, tr.Step().Loss)
	}

	tr2 := newCkptTrainer(t, 999) // different seed: everything must come from the checkpoint
	res, err := ckpt.Restore(dir, 8, 0, tr2.CheckpointParams())
	if err != nil {
		t.Fatal(err)
	}
	tr2.ApplyRestored(res.Header)
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

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	model, _ := tinyModel(4)
	params := model.Params()
	if err := ckpt.Save(dir, 42, ckpt.Header{Step: 42, LossScale: 2048}, params); err != nil {
		t.Fatal(err)
	}
	// Perturb, then restore.
	orig := make([][]float32, len(params))
	for i, p := range params {
		orig[i] = append([]float32(nil), p.W.Data...)
		for j := range p.W.Data {
			p.W.Data[j] += 1
		}
	}
	res, err := ckpt.Restore(dir, 42, 0, params)
	if err != nil {
		t.Fatal(err)
	}
	if res.Header.Step != 42 || res.Header.LossScale != 2048 {
		t.Fatalf("header %+v", res.Header)
	}
	for i, p := range params {
		for j := range p.W.Data {
			if p.W.Data[j] != orig[i][j] {
				t.Fatalf("param %s not restored", p.Name)
			}
		}
	}
}

func TestCheckpointMissingTensor(t *testing.T) {
	dir := t.TempDir()
	model, _ := tinyModel(5)
	params := model.Params()
	if err := ckpt.Save(dir, 0, ckpt.Header{}, params[:len(params)-1]); err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.Restore(dir, 0, 0, params); err == nil || !strings.Contains(err.Error(), "not covered by any shard") {
		t.Fatalf("missing tensor not reported: %v", err)
	}
}

// A shard that does not start with the checkpoint magic is refused from
// its prologue, before any tensor is read.
func TestCheckpointBadMagic(t *testing.T) {
	dir := t.TempDir()
	p := quadParam(7)
	if err := ckpt.Save(dir, 0, ckpt.Header{}, []*nn.Param{p}); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Join(ckpt.StepDir(dir, 0), ckpt.ShardFile(0))
	raw, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	copy(raw, []byte{1, 2, 3, 4})
	if err := os.WriteFile(shard, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	p.W.Data[0] = 0
	if _, err := ckpt.Restore(dir, 0, 0, []*nn.Param{p}); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic accepted: %v", err)
	}
	if p.W.Data[0] != 0 {
		t.Fatal("rejected shard modified the tensor")
	}
}

func TestCheckpointShapeMismatch(t *testing.T) {
	dir := t.TempDir()
	p := quadParam(1, 2)
	if err := ckpt.Save(dir, 0, ckpt.Header{}, []*nn.Param{p}); err != nil {
		t.Fatal(err)
	}
	p2 := quadParam(1, 2, 3) // same name, different element count
	if _, err := ckpt.Restore(dir, 0, 0, []*nn.Param{p2}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

// GatherShards is CheckpointShard's inverse: with nothing but its own
// slice views valid, every replica ends up holding the weights, moments
// and masters whole, bit for bit — over a ring (3 ranks) and over the
// hierarchical path that shares one buffer inside a supernode (5 ranks,
// uneven shards, two supernodes).
func TestGatherShardsInvertsCheckpointShard(t *testing.T) {
	for _, p := range []int{3, 5} {
		w := mpi.NewWorld(p, simnet.New(sunway.TestMachine(2, 4), 1))
		w.Run(func(c *mpi.Comm) {
			tr := newCkptTrainer(t, 11) // same seed: replicas
			tr.Step()
			tr.Step()
			all := tr.CheckpointParams()
			want := make([][]uint32, len(all))
			for k, q := range all {
				for _, v := range q.W.Data {
					want[k] = append(want[k], math.Float32bits(v))
				}
			}
			group := ShardGroup{Comm: c, Params: tr.params}
			views := tr.CheckpointShard(group)
			mine := make([][]float32, len(views))
			for k, v := range views {
				mine[k] = append([]float32(nil), v.W.Data...)
			}
			for _, q := range all {
				for i := range q.W.Data {
					q.W.Data[i] = float32(math.NaN())
				}
			}
			for k, v := range views {
				copy(v.W.Data, mine[k])
			}
			tr.GatherShards(group)
			for k, q := range all {
				for i, v := range q.W.Data {
					if math.Float32bits(v) != want[k][i] {
						t.Errorf("p=%d rank %d: %s[%d] = %08x after the gather, want %08x", p, c.Rank(), q.Name, i, math.Float32bits(v), want[k][i])
						return
					}
				}
			}
		})
	}
}
