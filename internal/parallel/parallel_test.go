package parallel

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"bagualu/internal/ckpt"
	"bagualu/internal/data"
	"bagualu/internal/metrics"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/parallel/layout"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
	"bagualu/internal/train"
)

func tinyModelCfg(moeEvery int) ModelConfig {
	return ModelConfig{
		GPT:            nn.GPTConfig{Vocab: 32, Dim: 8, Heads: 2, Layers: 2, SeqLen: 4, FFNHidden: 16},
		NumExperts:     4,
		TopK:           2,
		CapacityFactor: 2,
		AuxLossWeight:  0.01,
		MoEHidden:      16,
		MoEEvery:       moeEvery,
	}
}

func tinyCorpusCfg() data.CorpusConfig {
	return data.CorpusConfig{Vocab: 32, SeqLen: 4, Zipf: 0.5, Determinism: 0.9, Seed: 7}
}

func tinyTrainCfg() train.Config {
	return train.Config{Batch: 2, Precision: sunway.FP32, Schedule: train.ConstantLR(1e-2), ClipNorm: 1}
}

func runEngine(t *testing.T, strat Strategy, mc ModelConfig, steps int) []StepStats {
	t.Helper()
	topo := simnet.New(sunway.TestMachine(2, 2), 1)
	w := mpi.NewWorld(strat.Size(), topo)
	stats := make([]StepStats, steps)
	w.Run(func(c *mpi.Comm) {
		e, err := NewEngine(c, strat, mc, tinyCorpusCfg(), tinyTrainCfg(), train.NewAdam(0), 11)
		if err != nil {
			t.Error(err)
			panic(err)
		}
		for s := 0; s < steps; s++ {
			st := e.Step()
			if c.Rank() == 0 {
				stats[s] = st
			}
		}
	})
	return stats
}

func TestStrategyValidate(t *testing.T) {
	if (Strategy{DataParallel: 2, ExpertParallel: 2}).Validate() != nil {
		t.Fatal("valid strategy rejected")
	}
	if (Strategy{DataParallel: 0, ExpertParallel: 2}).Validate() == nil {
		t.Fatal("zero DP accepted")
	}
	if (Strategy{DataParallel: 2, ExpertParallel: 3}).Size() != 6 {
		t.Fatal("Size wrong")
	}
}

// A one-member communicator has nothing to reduce: at unit scale the
// gradients keep every bit (dp = 1 stages under PP, the single-rank
// engine), otherwise they are scaled where they lie; either way no
// virtual time passes.
func TestAllReduceBucketedSingleMember(t *testing.T) {
	vals := []float32{1.5, float32(math.Copysign(0, -1)), 1e-40, float32(math.Inf(-1)), -3}
	mpi.NewWorld(1, nil).Run(func(c *mpi.Comm) {
		p, q := nn.NewParam("p", tensor.New(3)), nn.NewParam("q", tensor.New(2))
		copy(p.G.Data, vals[:3])
		copy(q.G.Data, vals[3:])
		t0 := c.Now()
		allReduceBucketed(c, []*nn.Param{p, q}, 1, mpi.GradWire{})
		for i, v := range append(append([]float32(nil), p.G.Data...), q.G.Data...) {
			if math.Float32bits(v) != math.Float32bits(vals[i]) {
				t.Errorf("unit scale moved gradient %d: %v -> %v", i, vals[i], v)
			}
		}
		allReduceBucketed(c, []*nn.Param{p, q}, 0.5, mpi.GradWire{})
		for i, v := range append(append([]float32(nil), p.G.Data...), q.G.Data...) {
			if want := vals[i] * 0.5; math.Float32bits(v) != math.Float32bits(want) {
				t.Errorf("gradient %d scaled to %v, want %v", i, v, want)
			}
		}
		if c.Now() != t0 {
			t.Errorf("virtual clock moved %v -> %v", t0, c.Now())
		}
	})
}

func TestEngineTrainsMoDa(t *testing.T) {
	stats := runEngine(t, Strategy{DataParallel: 2, ExpertParallel: 2}, tinyModelCfg(1), 20)
	first, last := stats[0].Loss, stats[len(stats)-1].Loss
	if last >= first {
		t.Fatalf("MoDa loss did not decrease: %v -> %v", first, last)
	}
	if stats[0].SimTime <= 0 {
		t.Fatal("no virtual time charged")
	}
	if stats[0].TokensPer <= 0 {
		t.Fatal("no throughput computed")
	}
}

func TestEnginePureExpertParallel(t *testing.T) {
	stats := runEngine(t, Strategy{DataParallel: 1, ExpertParallel: 4}, tinyModelCfg(1), 10)
	if stats[9].Loss >= stats[0].Loss {
		t.Fatalf("EP-only loss did not decrease: %v -> %v", stats[0].Loss, stats[9].Loss)
	}
}

func TestEnginePureDataParallelDense(t *testing.T) {
	// MoEEvery=0 -> dense baseline, pure data parallelism.
	stats := runEngine(t, Strategy{DataParallel: 4, ExpertParallel: 1}, tinyModelCfg(0), 10)
	if stats[9].Loss >= stats[0].Loss {
		t.Fatalf("dense DP loss did not decrease: %v -> %v", stats[0].Loss, stats[9].Loss)
	}
}

func TestReplicasStayInSync(t *testing.T) {
	// After several steps, dense parameters must be bit-identical on
	// all ranks, and expert shards identical across data-parallel
	// peers.
	strat := Strategy{DataParallel: 2, ExpertParallel: 2}
	topo := simnet.New(sunway.TestMachine(2, 2), 1)
	w := mpi.NewWorld(4, topo)
	dense := make([][]float32, 4)
	expert := make([][]float32, 4)
	epRank := make([]int, 4)
	w.Run(func(c *mpi.Comm) {
		e, err := NewEngine(c, strat, tinyModelCfg(1), tinyCorpusCfg(), tinyTrainCfg(), train.NewAdam(0), 3)
		if err != nil {
			panic(err)
		}
		for s := 0; s < 5; s++ {
			e.Step()
		}
		var d []float32
		for _, p := range e.DenseParams() {
			d = append(d, p.W.Data...)
		}
		var x []float32
		for _, p := range e.ExpertParams() {
			x = append(x, p.W.Data...)
		}
		dense[c.Rank()] = d
		expert[c.Rank()] = x
		epRank[c.Rank()] = e.EP.Rank()
	})
	for r := 1; r < 4; r++ {
		for i := range dense[0] {
			if math.Abs(float64(dense[r][i]-dense[0][i])) > 1e-5 {
				t.Fatalf("dense params diverged at rank %d index %d: %v vs %v", r, i, dense[r][i], dense[0][i])
			}
		}
	}
	// Ranks with the same EP index hold the same expert shard.
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			if epRank[a] != epRank[b] {
				continue
			}
			for i := range expert[a] {
				if math.Abs(float64(expert[a][i]-expert[b][i])) > 1e-5 {
					t.Fatalf("expert shards diverged between dp peers %d and %d", a, b)
				}
			}
		}
	}
}

func TestNumParamsGlobal(t *testing.T) {
	strat := Strategy{DataParallel: 1, ExpertParallel: 2}
	w := mpi.NewWorld(2, nil)
	w.Run(func(c *mpi.Comm) {
		mc := tinyModelCfg(1)
		e, err := NewEngine(c, strat, mc, tinyCorpusCfg(), tinyTrainCfg(), train.NewSGD(0), 1)
		if err != nil {
			panic(err)
		}
		// Reference: a single-rank engine holds all experts locally.
		got := e.NumParamsGlobal()
		// Expert params per layer: 4 experts × (8*16+16 + 16*8+8) = 4*280.
		// 2 MoE layers (MoEEvery=1, Layers=2).
		wantExperts := 2 * 4 * (8*16 + 16 + 16*8 + 8)
		dense := nn.NumParams(e.DenseParams())
		if got != dense+wantExperts {
			t.Errorf("NumParamsGlobal = %d, want %d", got, dense+wantExperts)
		}
		if e.GlobalBatchTokens() != 2*4*2 {
			t.Errorf("GlobalBatchTokens = %d", e.GlobalBatchTokens())
		}
	})
}

func TestEngineRejectsBadGrid(t *testing.T) {
	w := mpi.NewWorld(2, nil)
	w.Run(func(c *mpi.Comm) {
		_, err := NewEngine(c, Strategy{DataParallel: 3, ExpertParallel: 1}, tinyModelCfg(0), tinyCorpusCfg(), tinyTrainCfg(), train.NewSGD(0), 1)
		if err == nil {
			t.Error("mismatched grid accepted")
		}
		_, err = NewEngine(c, Strategy{DataParallel: 1, ExpertParallel: 2}, ModelConfig{
			GPT:        tinyModelCfg(1).GPT,
			NumExperts: 3, TopK: 1, CapacityFactor: 1, MoEHidden: 8, MoEEvery: 1,
		}, tinyCorpusCfg(), tinyTrainCfg(), train.NewSGD(0), 1)
		if err == nil {
			t.Error("indivisible experts accepted")
		}
	})
}

func TestMoEBreakdownPopulated(t *testing.T) {
	stats := runEngine(t, Strategy{DataParallel: 1, ExpertParallel: 4}, tinyModelCfg(1), 2)
	tm := stats[1].MoE
	if tm.Gate <= 0 || tm.Dispatch <= 0 || tm.Expert <= 0 || tm.Combine <= 0 {
		t.Fatalf("MoE breakdown not populated: %+v", tm)
	}
}

// TestA2AAlgosTrainIdentically runs W2's shape — dp2×ep4 over four
// supernodes of one two-rank node, so every expert-parallel group spans
// two supernodes — under the direct, hierarchical and auto-selected
// exchanges. Every step's loss and gradient norm must agree bit for bit,
// under FP32Wire and under FP16Wire with Mixed precision and overlap:
// the algorithm moves bytes, never values.
func TestA2AAlgosTrainIdentically(t *testing.T) {
	const steps = 5
	for _, row := range []struct {
		name string
		comm moe.CommConfig
		prec sunway.Precision
	}{
		{"fp32", moe.CommConfig{Codec: mpi.FP32Wire}, sunway.FP32},
		{"fp16-mixed", moe.CommConfig{Codec: mpi.FP16Wire, Overlap: true}, sunway.Mixed},
	} {
		t.Run(row.name, func(t *testing.T) {
			run := func(algo moe.A2AAlgo) []StepStats {
				mc := tinyModelCfg(1)
				mc.Algo, mc.Comm = algo, row.comm
				tc := tinyTrainCfg()
				tc.Precision = row.prec
				stats := make([]StepStats, steps)
				w := mpi.NewWorld(8, simnet.New(sunway.TestMachine(4, 1), 2))
				w.Run(func(c *mpi.Comm) {
					e, err := NewEngine(c, Strategy{DataParallel: 2, ExpertParallel: 4}, mc, tinyCorpusCfg(), tc, train.NewAdam(0), 11)
					if err != nil {
						t.Error(err)
						panic(err)
					}
					for s := range stats {
						st := e.Step()
						if c.Rank() == 0 {
							stats[s] = st
						}
					}
				})
				return stats
			}
			direct := run(moe.Direct)
			if direct[0].Wire.Raw[simnet.MachineLevel] == 0 {
				t.Fatal("no exchange crossed supernodes: the shape tests nothing")
			}
			for _, algo := range []moe.A2AAlgo{moe.Hierarchical, moe.Auto} {
				for s, st := range run(algo) {
					d := direct[s]
					if math.Float32bits(st.Loss) != math.Float32bits(d.Loss) || math.Float32bits(st.GradNorm) != math.Float32bits(d.GradNorm) {
						t.Fatalf("step %d under %v: loss %v gnorm %v, direct %v %v", s, algo, st.Loss, st.GradNorm, d.Loss, d.GradNorm)
					}
				}
			}
		})
	}
}

func TestEngineRecomputeMatchesPlain(t *testing.T) {
	// Distributed training with activation checkpointing must follow
	// the exact same trajectory as without it (deterministic layers).
	run := func(every int) float32 {
		mc := tinyModelCfg(1)
		mc.RecomputeEvery = every
		stats := runEngine(t, Strategy{DataParallel: 2, ExpertParallel: 2}, mc, 5)
		return stats[4].Loss
	}
	plain := run(0)
	ckpt := run(1)
	if math.Abs(float64(plain-ckpt)) > 1e-5 {
		t.Fatalf("recompute changed the training trajectory: %v vs %v", plain, ckpt)
	}
}

func TestEngineRecomputeDoublesDispatchTraffic(t *testing.T) {
	// The recompute pass re-runs the MoE forward all-to-alls, so
	// total traffic must grow noticeably.
	traffic := func(every int) int64 {
		mc := tinyModelCfg(1)
		mc.RecomputeEvery = every
		strat := Strategy{DataParallel: 1, ExpertParallel: 4}
		topo := simnet.New(sunway.TestMachine(2, 2), 1)
		w := mpi.NewWorld(4, topo)
		w.Run(func(c *mpi.Comm) {
			e, err := NewEngine(c, strat, mc, tinyCorpusCfg(), tinyTrainCfg(), train.NewAdam(0), 11)
			if err != nil {
				panic(err)
			}
			for s := 0; s < 3; s++ {
				e.Step()
			}
		})
		return w.Stats().Snapshot().TotalBytes()
	}
	plain := traffic(0)
	ckpt := traffic(1)
	if float64(ckpt) < float64(plain)*1.2 {
		t.Fatalf("recompute traffic %d not above plain %d", ckpt, plain)
	}
}

func TestEngineBF16Trains(t *testing.T) {
	mc := tinyModelCfg(1)
	tc := tinyTrainCfg()
	tc.Precision = sunway.BF16
	topo := simnet.New(sunway.TestMachine(2, 2), 1)
	w := mpi.NewWorld(4, topo)
	var first, last float32
	w.Run(func(c *mpi.Comm) {
		e, err := NewEngine(c, Strategy{DataParallel: 2, ExpertParallel: 2}, mc, tinyCorpusCfg(), tc, train.NewAdam(0), 11)
		if err != nil {
			panic(err)
		}
		for s := 0; s < 15; s++ {
			st := e.Step()
			if c.Rank() == 0 {
				if s == 0 {
					first = st.Loss
				}
				last = st.Loss
			}
		}
	})
	if last >= first {
		t.Fatalf("bf16 distributed training did not reduce loss: %v -> %v", first, last)
	}
}

// TestMixedOverflowSkipsEverywhere: under Mixed precision an FP16
// overflow on one rank alone must not leave that rank out of its peers'
// gradient sync. It joins the sync, its Inf reaches every rank's norm,
// every rank skips the step, halves its loss scale and keeps its owned
// weights, and the next step trains. On the flat grid the overflow is
// planted on rank 0; on pp2×ep2 once on a first-stage rank (its gates'
// aux-loss gradient overflows) and once on a head-stage rank (its logits
// gradient does), where the column's norm carries it across the stage
// boundary. In the wire row no rank overflows alone: two ranks' finite
// FP16 gradients sum past 65504 at the loss scale, the 16-bit sync's
// owner rounds the sum to Inf, and every rank sees an Inf norm. The
// world runs under a timeout: the desynchronized collectives this
// guards against may hang instead of panicking.
func TestMixedOverflowSkipsEverywhere(t *testing.T) {
	for _, row := range []struct {
		name  string
		strat Strategy
		mc    ModelConfig
		accum int
		plant int   // the rank whose scale overflows, or -1
		stage int   // and its pipeline stage
		sum   []int // the ranks whose gradients overflow only summed
	}{
		{"dp2xep2", Strategy{DataParallel: 2, ExpertParallel: 2}, tinyModelCfg(1), 0, 0, 0, nil},
		{"pp2xep2_first_stage", Strategy{DataParallel: 1, ExpertParallel: 2, Pipeline: 2}, pipeModelCfg(4), 2, 0, 0, nil},
		{"pp2xep2_head_stage", Strategy{DataParallel: 1, ExpertParallel: 2, Pipeline: 2}, pipeModelCfg(4), 2, 3, 1, nil},
		{"dp2xep2_wire", Strategy{DataParallel: 2, ExpertParallel: 2}, tinyModelCfg(1), 0, -1, 0, []int{1, 2}},
	} {
		t.Run(row.name, func(t *testing.T) {
			tc := tinyTrainCfg()
			tc.Precision, tc.Accum = sunway.Mixed, row.accum
			type rankRec struct {
				init, afterSkip, afterGood float32
				skips                      [2]int
				weightsKept, weightsMoved  bool
				loss, norm                 float32
			}
			recs := make([]rankRec, row.strat.Size())
			w := mpi.NewWorld(row.strat.Size(), simnet.New(sunway.TestMachine(2, 2), 1))
			done := make(chan any, 1)
			go func() {
				defer func() { done <- recover() }()
				w.Run(func(c *mpi.Comm) {
					e, err := NewEngine(c, row.strat, row.mc, tinyCorpusCfg(), tc, train.NewAdam(0), 11)
					if err != nil {
						panic(err)
					}
					rec := &recs[c.Rank()]
					mp := e.Trainer.MP
					rec.init = mp.Scale
					if c.Rank() == row.plant {
						if s := e.Strategy.Coord(layout.AxisPipe, c.Rank()); s != row.stage {
							panic(fmt.Sprintf("rank %d is on stage %d, not %d", c.Rank(), s, row.stage))
						}
						mp.Scale = 1e12 // this rank's gradients overflow FP16
					}
					finished := e.Trainer.Runner.Finished
					e.Trainer.Runner.Finished = func(u int) {
						if u == nn.EmbedUnit && slices.Contains(row.sum, c.Rank()) && e.Trainer.StepCount() == 0 {
							// The embeddings complete the bucket holding the
							// first dense gradient, whose sync starts now:
							// finite at the scale, past 65504 once two meet.
							e.DenseParams()[0].G.Data[0] = 40000
						}
						finished(u)
					}
					sync := e.Trainer.PostBackward
					e.Trainer.PostBackward = func(m train.Metrics) float32 {
						norm := sync(m)
						if e.Trainer.StepCount() == 0 {
							rec.norm = norm
						}
						return norm
					}
					owned := func() (w []float32) {
						for _, p := range e.Trainer.Params() {
							w = append(w, p.W.Data...)
						}
						return w
					}
					w0 := owned()
					e.Step()
					rec.afterSkip, rec.skips[0] = mp.Scale, mp.SkippedSteps()
					rec.weightsKept = slices.Equal(w0, owned())
					mp.Scale = rec.init / 2 // the planted rank rejoins its peers' scale
					st := e.Step()
					rec.afterGood, rec.skips[1], rec.loss = mp.Scale, mp.SkippedSteps(), st.Loss
					rec.weightsMoved = !slices.Equal(w0, owned())
				})
			}()
			select {
			case p := <-done:
				if p != nil {
					t.Fatalf("world failed after a one-rank overflow: %v", p)
				}
			case <-time.After(time.Minute):
				t.Fatal("world hung after a one-rank overflow")
			}
			for r, rec := range recs {
				want := rec.init / 2
				if r == row.plant {
					want = 1e12 / 2
				}
				switch {
				case row.sum != nil && !math.IsInf(float64(rec.norm), 1):
					t.Fatalf("rank %d: norm %v after the planted sum, want +Inf", r, rec.norm)
				case rec.skips != [2]int{1, 1}:
					t.Fatalf("rank %d: skipped steps after each step %v, want [1 1]", r, rec.skips)
				case rec.afterSkip != want:
					t.Fatalf("rank %d: scale %v after the skip, want %v", r, rec.afterSkip, want)
				case !rec.weightsKept:
					t.Fatalf("rank %d: the skipped step moved weights", r)
				case rec.afterGood != recs[0].afterGood:
					t.Fatalf("rank %d: scale %v after the good step, rank 0 has %v", r, rec.afterGood, recs[0].afterGood)
				case !rec.weightsMoved || math.IsNaN(float64(rec.loss)) || math.IsInf(float64(rec.loss), 0):
					t.Fatalf("rank %d: the step after the skip did not train (loss %v)", r, rec.loss)
				}
			}
		})
	}
}

func TestEngineRebalanceKeepsTraining(t *testing.T) {
	// Train, rebalance mid-run, keep training: replicas must stay in
	// sync and the loss must keep falling.
	strat := Strategy{DataParallel: 2, ExpertParallel: 2}
	topo := simnet.New(sunway.TestMachine(2, 2), 1)
	w := mpi.NewWorld(4, topo)
	var first, afterRebalance, last float32
	dense := make([][]float32, 4)
	w.Run(func(c *mpi.Comm) {
		e, err := NewEngine(c, strat, tinyModelCfg(1), tinyCorpusCfg(), tinyTrainCfg(), train.NewAdam(0), 13)
		if err != nil {
			panic(err)
		}
		for s := 0; s < 8; s++ {
			st := e.Step()
			if c.Rank() == 0 && s == 0 {
				first = st.Loss
			}
		}
		if _, err := e.RebalanceExperts(); err != nil {
			t.Error(err)
			panic(err)
		}
		for s := 0; s < 8; s++ {
			st := e.Step()
			if c.Rank() == 0 {
				if s == 0 {
					afterRebalance = st.Loss
				}
				last = st.Loss
			}
		}
		var d []float32
		for _, p := range e.DenseParams() {
			d = append(d, p.W.Data...)
		}
		dense[c.Rank()] = d
	})
	if last >= first {
		t.Fatalf("loss did not fall across rebalance: %v -> %v", first, last)
	}
	if afterRebalance > first*1.5 {
		t.Fatalf("rebalance spiked the loss: %v -> %v", first, afterRebalance)
	}
	for r := 1; r < 4; r++ {
		for i := range dense[0] {
			if math.Abs(float64(dense[r][i]-dense[0][i])) > 1e-5 {
				t.Fatalf("dense replicas diverged after rebalance at rank %d", r)
			}
		}
	}
}

// TestShardedCheckpointRoundTrip: every rank's weights survive
// ckpt.Writer.Save -> ckpt.Restore into fresh engines of the same
// layout, bit for bit. The pipelined grid is the case the seed-era
// Engine.LoadSharded hung on (non-first stages returned before its
// barrier).
func TestShardedCheckpointRoundTrip(t *testing.T) {
	const steps = 5
	for _, tc := range []struct {
		name  string
		strat Strategy
		mc    ModelConfig
		train train.Config
	}{
		{"dp2xep2", Strategy{DataParallel: 2, ExpertParallel: 2}, tinyModelCfg(1), tinyTrainCfg()},
		{"pp2xep2", Strategy{DataParallel: 1, ExpertParallel: 2, Pipeline: 2}, pipeModelCfg(4), pipeTrainCfg(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			// weights trains and saves, or restores into engines fresh from
			// init, and returns every rank's parameters.
			weights := func(restore bool) [][]float32 {
				out := make([][]float32, tc.strat.Size())
				w := mpi.NewWorld(tc.strat.Size(), simnet.New(sunway.TestMachine(2, 2), 1))
				w.Run(func(c *mpi.Comm) {
					e, err := NewEngine(c, tc.strat, tc.mc, tinyCorpusCfg(), tc.train, train.NewAdam(0), 17)
					if err != nil {
						t.Error(err)
						panic(err)
					}
					if restore {
						rr, err := ckpt.Restore(dir, steps, c.Rank(), e.Trainer.CheckpointParams())
						if err != nil {
							t.Error(err)
							panic(err)
						}
						e.Trainer.ApplyRestored(rr.Header)
					} else {
						for s := 0; s < steps; s++ {
							e.Step()
						}
						lay := ckpt.Layout{
							WorldSize: c.Size(), DataParallel: tc.strat.DataParallel,
							ExpertParallel: tc.strat.ExpertParallel, Pipeline: tc.strat.Pipeline,
						}
						wr := ckpt.NewWriter(ckpt.Config{Dir: dir}, c)
						if err := wr.Save(steps, e.Trainer.CheckpointHeader(), e.Trainer.CheckpointParams(), lay); err != nil {
							t.Error(err)
							panic(err)
						}
					}
					for _, p := range e.Trainer.Params() {
						out[c.Rank()] = append(out[c.Rank()], p.W.Data...)
					}
				})
				return out
			}
			saved, restored := weights(false), weights(true)
			for rank := range saved {
				if len(restored[rank]) != len(saved[rank]) {
					t.Fatalf("rank %d: restored %d weights, saved %d", rank, len(restored[rank]), len(saved[rank]))
				}
				for i := range saved[rank] {
					if restored[rank][i] != saved[rank][i] {
						t.Fatalf("rank %d: weight %d not restored", rank, i)
					}
				}
			}
		})
	}
}

// StepStats.ComputeSim meters the model-FLOP charges beside the clock,
// at all three sites. Where every rank charges the same dense lump (flat
// grid, recompute on) it is exactly what the step got slower by; with
// MoE layers pricing their GEMMs inline, and on a pipelined grid whose
// runner charges per chunk pass, it is positive and inside the step.
func TestComputeSimMetersEveryCharge(t *testing.T) {
	const rate = 1e9
	// step runs one step and returns rank 0's stats and the compute its
	// phase record booked.
	step := func(strat Strategy, mc ModelConfig, tc train.Config, rate float64) (StepStats, float64) {
		var st StepStats
		var booked float64
		w := mpi.NewWorld(strat.Size(), simnet.New(sunway.TestMachine(2, 2), 1))
		w.Run(func(c *mpi.Comm) {
			e, err := NewEngine(c, strat, mc, tinyCorpusCfg(), tc, train.NewAdam(0), 11)
			if err != nil {
				t.Error(err)
				panic(err)
			}
			e.SetComputeRate(rate)
			if s := e.Step(); c.Rank() == 0 {
				st, booked = s, c.Phases().Seconds(metrics.PhaseCompute)
			}
		})
		return st, booked
	}
	flat := Strategy{DataParallel: 2, ExpertParallel: 2}
	mc := tinyModelCfg(1)
	mc.RecomputeEvery = 2
	free, _ := step(flat, mc, tinyTrainCfg(), 0)
	priced, _ := step(flat, mc, tinyTrainCfg(), rate)
	if free.ComputeSim != 0 {
		t.Fatalf("ComputeSim %v with no compute rate set", free.ComputeSim)
	}
	if priced.RecomputeSim <= 0 || priced.ComputeSim <= priced.RecomputeSim {
		t.Fatalf("ComputeSim %v should hold the dense lump on top of the recompute replay %v", priced.ComputeSim, priced.RecomputeSim)
	}
	if paid := priced.SimTime - free.SimTime; math.Abs(paid-priced.ComputeSim) > 1e-9*priced.SimTime {
		t.Fatalf("clock paid %v for compute, ComputeSim says %v", paid, priced.ComputeSim)
	}

	// With no engine rate the record's compute is the MoE layers' inline
	// expert GEMMs alone.
	mc = tinyModelCfg(1)
	mc.MoESimFLOPS = rate
	_, expertSim := step(flat, mc, tinyTrainCfg(), 0)
	if st, _ := step(flat, mc, tinyTrainCfg(), rate); expertSim <= 0 || st.ComputeSim <= expertSim || st.ComputeSim >= st.SimTime {
		t.Fatalf("inline expert charges: ExpertSim %v, ComputeSim %v, step %v", expertSim, st.ComputeSim, st.SimTime)
	}
	if st, _ := step(Strategy{DataParallel: 2, ExpertParallel: 1, Pipeline: 2}, pipeModelCfg(4), pipeTrainCfg(2), rate); st.ComputeSim <= 0 || st.ComputeSim >= st.SimTime {
		t.Fatalf("pipelined grid: ComputeSim %v, step %v", st.ComputeSim, st.SimTime)
	}
}

// TestDepthOneEngineMatchesTrainer holds what the engine adds around
// the trainer's step — the runner it installs, the one-rank gradient
// sync, the distributed norm and clip — to a bare train.Trainer.Step
// with its own one-stage runner: a one-rank depth-1 engine must follow
// it on the same model, tokens and optimizer bit for bit: loss,
// gradient norm and every weight, at FP32 and Mixed, with and without
// gradient accumulation. (The trainer's step is held to the direct
// Forward/Backward loop in internal/train.)
func TestDepthOneEngineMatchesTrainer(t *testing.T) {
	const (
		steps = 4
		seed  = 5
	)
	mc := tinyModelCfg(0)
	for _, prec := range []sunway.Precision{sunway.FP32, sunway.Mixed} {
		for _, accum := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v_accum%d", prec, accum), func(t *testing.T) {
				tc := tinyTrainCfg()
				tc.Precision, tc.Accum = prec, accum

				model := nn.NewGPT(mc.GPT, tensor.NewRNG(seed), nil)
				corpus, err := data.NewSynthetic(tinyCorpusCfg())
				if err != nil {
					t.Fatal(err)
				}
				tr, err := train.NewTrainer(model, corpus, train.NewAdam(0), tc)
				if err != nil {
					t.Fatal(err)
				}
				want := make([]train.Metrics, steps)
				for s := range want {
					want[s] = tr.Step()
				}

				got := make([]StepStats, steps)
				var params []*nn.Param
				mpi.NewWorld(1, nil).Run(func(c *mpi.Comm) {
					e, err := NewEngine(c, Strategy{DataParallel: 1, ExpertParallel: 1}, mc, tinyCorpusCfg(), tc, train.NewAdam(0), seed)
					if err != nil {
						panic(err)
					}
					for s := range got {
						got[s] = e.Step()
					}
					params = e.Trainer.Params()
				})
				for s := range got {
					if math.Float32bits(got[s].Loss) != math.Float32bits(want[s].Loss) ||
						math.Float32bits(got[s].GradNorm) != math.Float32bits(want[s].GradNorm) {
						t.Fatalf("step %d: engine loss %v gnorm %v, trainer %v / %v",
							s, got[s].Loss, got[s].GradNorm, want[s].Loss, want[s].GradNorm)
					}
				}
				ref := tr.Params()
				if len(params) != len(ref) {
					t.Fatalf("engine trains %d params, trainer %d", len(params), len(ref))
				}
				for i, p := range params {
					for j, v := range p.W.Data {
						if math.Float32bits(v) != math.Float32bits(ref[i].W.Data[j]) {
							t.Fatalf("weight %s[%d]: engine %v, trainer %v", p.Name, j, v, ref[i].W.Data[j])
						}
					}
				}
			})
		}
	}
}

// TestFlatTokensCountAccum: on the flat grid every rank draws Accum
// micro-batches a step, so the global batch and the virtual throughput
// count all of them.
func TestFlatTokensCountAccum(t *testing.T) {
	tc := tinyTrainCfg()
	tc.Accum = 3
	strat := Strategy{DataParallel: 2, ExpertParallel: 1}
	mpi.NewWorld(strat.Size(), simnet.New(sunway.TestMachine(2, 2), 1)).Run(func(c *mpi.Comm) {
		e, err := NewEngine(c, strat, tinyModelCfg(0), tinyCorpusCfg(), tc, train.NewAdam(0), 3)
		if err != nil {
			panic(err)
		}
		st := e.Step()
		const want = 2 * 4 * 3 * 2 // batch × seq × accum × ranks
		if c.Rank() != 0 {
			return
		}
		if got := e.GlobalBatchTokens(); got != want {
			t.Errorf("GlobalBatchTokens = %d, want %d", got, want)
		}
		if got := st.TokensPer * st.SimTime; math.Abs(got-want) > 1e-9*want {
			t.Errorf("TokensPer × SimTime = %v tokens, want %d", got, want)
		}
	})
}

// TestRepartitionKeepsPrecisionState: re-partitioning the parameters —
// here RebalanceExperts mid-run under Mixed precision — moves nothing
// the precision policy trained: the loss-scale state and the FP32 master
// of every parameter the rank still trains are what they were.
func TestRepartitionKeepsPrecisionState(t *testing.T) {
	tc := tinyTrainCfg()
	tc.Precision = sunway.Mixed
	strat := Strategy{DataParallel: 2, ExpertParallel: 2}
	errs := make([]error, strat.Size())
	mpi.NewWorld(strat.Size(), simnet.New(sunway.TestMachine(2, 2), 1)).Run(func(c *mpi.Comm) {
		e, err := NewEngine(c, strat, tinyModelCfg(1), tinyCorpusCfg(), tc, train.NewAdam(0), 13)
		if err != nil {
			panic(err)
		}
		for s := 0; s < 4; s++ {
			e.Step()
		}
		scale, good, skipped := e.Trainer.MP.ScaleState()
		masters := map[string][]float32{}
		for _, m := range e.Trainer.MP.MasterParams() {
			masters[m.Name] = append([]float32(nil), m.W.Data...)
		}
		if _, err := e.RebalanceExperts(); err != nil {
			panic(err)
		}
		fail := func(format string, args ...any) {
			if errs[c.Rank()] == nil {
				errs[c.Rank()] = fmt.Errorf(format, args...)
			}
		}
		if s, g, k := e.Trainer.MP.ScaleState(); s != scale || g != good || k != skipped {
			fail("scale state (%v, %d, %d) after the rebalance, (%v, %d, %d) before", s, g, k, scale, good, skipped)
		}
		kept := 0
		for _, m := range e.Trainer.MP.MasterParams() {
			was, ok := masters[m.Name]
			if !ok {
				continue // an expert that moved here
			}
			kept++
			for i, v := range m.W.Data {
				if math.Float32bits(v) != math.Float32bits(was[i]) {
					fail("master %s[%d] %v after the rebalance, %v before", m.Name, i, v, was[i])
					break
				}
			}
		}
		if kept == 0 {
			fail("no parameter kept its master")
		}
		if st := e.Step(); math.IsNaN(float64(st.Loss)) {
			fail("the step after the rebalance lost the loss")
		}
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}
