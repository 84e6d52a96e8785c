package parallel

import (
	"math"
	"testing"

	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/parallel/layout"
	"bagualu/internal/perfmodel"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/train"
)

// TestMixedSyncBytesMatchModel: under Mixed the gradient sync sends
// what PredictStep prices. The world's counted bytes of one sync — the
// replicated all-reduces, or ZeRO's reduce-scatter plus its parameter
// all-gather — divided by the rank count equal the model's SyncBytes,
// on W2's shape (dp2×ep4, four supernodes of one two-rank node: a rail
// schedule with float32 middle hops beside a two-rank expert ring) and
// on a four-rank ring inside one supernode (two float32 middle hops).
func TestMixedSyncBytesMatchModel(t *testing.T) {
	for _, row := range []struct {
		name    string
		grid    Strategy
		machine *sunway.Machine
		rpn     int
		zero    bool
	}{
		{"w2-dp2xep4", Strategy{DataParallel: 2, ExpertParallel: 4}, sunway.TestMachine(4, 1), 2, false},
		{"w2-dp2xep4-zero", Strategy{DataParallel: 2, ExpertParallel: 4}, sunway.TestMachine(4, 1), 2, true},
		{"ring-dp4", Strategy{DataParallel: 4, ExpertParallel: 1}, sunway.TestMachine(1, 4), 1, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			mc := tinyModelCfg(1)
			tc := tinyTrainCfg()
			tc.Precision = sunway.Mixed
			spec := perfmodel.ModelSpec{
				Name: row.name, Vocab: mc.GPT.Vocab, Dim: mc.GPT.Dim, Heads: mc.GPT.Heads,
				Layers: mc.GPT.Layers, SeqLen: mc.GPT.SeqLen, FFNHidden: mc.GPT.FFNHidden,
				NumExperts: mc.NumExperts, MoEHidden: mc.MoEHidden, MoEEvery: mc.MoEEvery, TopK: mc.TopK,
			}
			d := perfmodel.Deployment{
				Machine: row.machine, RanksPerNode: row.rpn, Grid: layout.Grid(row.grid),
				BatchPerRank: tc.Batch, Precision: tc.Precision, Efficiency: 0.3, ZeRO: row.zero,
			}
			pred, err := d.PredictStep(spec, perfmodel.FaultModel{})
			if err != nil {
				t.Fatal(err)
			}
			// The world's bytes with and without the sync: engine
			// construction moves the same bytes in both.
			bytes := func(sync bool) int64 {
				w := mpi.NewWorld(row.grid.Size(), simnet.New(row.machine, row.rpn))
				w.Run(func(c *mpi.Comm) {
					opt := train.Optimizer(train.NewAdam(0))
					if row.zero {
						opt = train.NewShardedAdam(0)
					}
					e, err := NewEngine(c, row.grid, mc, tinyCorpusCfg(), tc, opt, 11)
					if err != nil {
						panic(err)
					}
					if c.Rank() == 0 {
						if got, want := nn.NumParams(e.denseParams), spec.DenseParams(); int64(got) != want {
							t.Errorf("engine holds %d dense parameters, the spec %d", got, want)
						}
					}
					if !sync {
						return
					}
					syncs := make([]*mpi.Request, len(e.groups))
					for i := range e.groups {
						syncs[i] = e.startGroup(i)
					}
					for _, r := range syncs {
						r.Wait()
					}
					if row.zero {
						e.zero.Step(nil, 0)
					}
				})
				return w.Stats().Snapshot().TotalBytes()
			}
			got := float64(bytes(true)-bytes(false)) / float64(row.grid.Size())
			t.Logf("%s: %.1f sync bytes per rank, model %.1f", row.name, got, pred.SyncBytes)
			if math.Abs(got-pred.SyncBytes) > 1e-9*got {
				t.Fatalf("%s: the world sent %.3f sync bytes per rank, PredictStep prices %.3f", row.name, got, pred.SyncBytes)
			}
		})
	}
}
