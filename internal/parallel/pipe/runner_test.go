package pipe

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/parallel/schedule"
	"bagualu/internal/simnet"
	"bagualu/internal/tensor"
)

// Every rank builds the same tiny model from one seed: attention in
// every block, a dense FFN in the even blocks and a grouped-expert MoE
// in the odd ones, so every kind of weight-gradient site defers.
var tinyCfg = nn.GPTConfig{Vocab: 16, Dim: 8, Heads: 2, Layers: 4, SeqLen: 4, FFNHidden: 16}

const tinyBatch = 2

func tinyModel(moeBlocks bool) *nn.GPT {
	var ffn nn.FFNFactory
	if moeBlocks {
		ffn = func(block int, name string, r *tensor.RNG) nn.Layer {
			if block%2 == 0 {
				return nn.NewFeedForward(name+".dense", r, tinyCfg.Dim, tinyCfg.FFNHidden)
			}
			gc := moe.GateConfig{Dim: tinyCfg.Dim, NumExperts: 3, TopK: 2, AuxLossWeight: 0.01}
			return moe.NewLocalMoE(name+".moe", r, gc, tinyCfg.FFNHidden)
		}
	}
	return nn.NewGPT(tinyCfg, tensor.NewRNG(5), ffn)
}

func tinyBatches(micro int) []MicroBatch {
	r := tensor.NewRNG(9)
	out := make([]MicroBatch, micro)
	n := tinyBatch * tinyCfg.SeqLen
	for i := range out {
		out[i].IDs, out[i].Targets = make([]int, n), make([]int, n)
		for j := 0; j < n; j++ {
			out[i].IDs[j] = int(r.Uint64() % uint64(tinyCfg.Vocab))
			out[i].Targets[j] = int(r.Uint64() % uint64(tinyCfg.Vocab))
		}
	}
	return out
}

func tinyRunner(c *mpi.Comm, model *nn.GPT, virtual, micro int) *Runner {
	stages := c.Size()
	part, err := schedule.PartitionLayers(tinyCfg.Layers, stages*virtual)
	if err != nil {
		panic(err)
	}
	return &Runner{
		Stages: stages, Virtual: virtual, Micro: micro, Stage: c.Rank(),
		Comm: c, Model: model, Part: part, Rows: tinyBatch * tinyCfg.SeqLen,
	}
}

// gradsAfterStep runs one step of a 2-stage, 2-virtual pipeline, with
// plan rewriting each stage's schedule, and returns every rank's
// gradients by parameter name.
func gradsAfterStep(t *testing.T, plan func([]schedule.Op) []schedule.Op) []map[string][]float32 {
	t.Helper()
	const stages, virtual, micro = 2, 2, 4
	out := make([]map[string][]float32, stages)
	mpi.NewWorld(stages, nil).Run(func(c *mpi.Comm) {
		model := tinyModel(true)
		r := tinyRunner(c, model, virtual, micro)
		r.init()
		r.sched = plan(r.sched)
		r.Step(tinyBatches(micro), 1)
		if n := r.Stashed(); n != 0 {
			t.Errorf("rank %d: %d passes outlive the step", c.Rank(), n)
		}
		g := map[string][]float32{}
		for _, p := range model.Params() {
			g[p.Name] = append([]float32(nil), p.G.Data...)
		}
		out[c.Rank()] = g
	})
	return out
}

// TestSplitBackwardKeepsItsGradient plants receives between every B
// and its W — each W moved to the end of its stage's schedule, after
// every later micro-batch's input gradient has arrived — and requires
// the gradients of the eager schedule, bit for bit. A W that read the
// runner's shared receive buffer instead of its own micro-batch's
// gradient fails it.
func TestSplitBackwardKeepsItsGradient(t *testing.T) {
	wLast := func(s []schedule.Op) []schedule.Op {
		var ops, ws []schedule.Op
		for _, op := range s {
			if op.Kind == schedule.WGrad {
				ws = append(ws, op)
			} else {
				ops = append(ops, op)
			}
		}
		return append(ops, ws...)
	}
	if s := schedule.Schedule(0, 2, 2, 4); reflect.DeepEqual(wLast(s), s) {
		t.Fatal("stage 0's W ops already run last: nothing is planted")
	}
	eager := gradsAfterStep(t, func(s []schedule.Op) []schedule.Op { return s })
	late := gradsAfterStep(t, wLast)
	for rank := range eager {
		for name, want := range eager[rank] {
			got := late[rank][name]
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("rank %d %s[%d]: %v with W deferred past later receives, %v eager", rank, name, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSplitBackwardSendsBeforeWeights pins the virtual clock of a
// 2-stage, dense 1F1B pipeline with constant chunk prices: forward F,
// weight-gradient share W of the 2F backward. Stage 1 owns the last
// chunk, whose backward is split; stage 0's receive of each
// micro-batch's input gradient completes exactly one link cost after
// stage 1's B ends — not after its W.
func TestSplitBackwardSendsBeforeWeights(t *testing.T) {
	const (
		micro = 4
		fwd   = 10e-6
		wgrad = 8e-6
		alpha = 1e-6
	)
	topo := simnet.Uniform(alpha, 1)
	l := topo.LevelOf(1, 0)
	link := topo.Alpha[l] + float64(4*tinyBatch*tinyCfg.SeqLen*tinyCfg.Dim)*topo.Beta[l]
	var bEnd, recvDone [micro]float64
	batches := tinyBatches(micro)
	mpi.NewWorld(2, topo).Run(func(c *mpi.Comm) {
		r := tinyRunner(c, tinyModel(false), 1, micro)
		// Each chunk's whole price on its first block, at one FLOP/s.
		r.Rate = 1
		r.Flops = func(u nn.Unit) (float64, float64) {
			if u.Block == r.Part[r.Stage].Lo {
				return fwd, wgrad
			}
			return 0, 0
		}
		r.init()
		for _, op := range r.sched {
			switch op.Kind {
			case schedule.Fwd:
				r.runForward(op.Chunk, op.MB, batches, 1, false)
			case schedule.Bwd:
				r.runBackward(op.Chunk, op.MB)
				if c.Rank() == 1 {
					bEnd[op.MB] = c.Now()
				} else {
					// Chunk 0's fused backward: the receive, then 2F.
					recvDone[op.MB] = c.Now() - 2*fwd
				}
			case schedule.WGrad:
				r.runWeights(op.Chunk, op.MB)
			}
		}
		for _, s := range r.sends {
			s.Wait()
		}
	})
	// Stage 0: F0 F1 B0 F2 B1 F3 B2 B3; stage 1: F B W per micro-batch.
	// Stage 1 is the slower stage (3F per micro-batch, B charged 2F−W)
	// and never waits after its first input lands at F+link, so its B
	// of micro-batch m ends at F+link + 3F·m + 3F−W, and stage 0 holds
	// that gradient one link later: W earlier than a fused backward.
	for m := 0; m < micro; m++ {
		want := fwd + link + 3*fwd*float64(m) + 3*fwd - wgrad + link
		if math.Abs(recvDone[m]-want) > 1e-15 {
			t.Errorf("mb %d: stage 0 holds dy at %.15g, want %.15g", m, recvDone[m], want)
		}
		if d := recvDone[m] - bEnd[m]; math.Abs(d-link) > 1e-15 {
			t.Errorf("mb %d: stage 0 holds dy %.6g after stage 1's B ends, want the link cost %.6g", m, d, link)
		}
	}
}

// TestRunnerReportsFollowUnitsOrder: on a 2-stage, 2-virtual pipeline
// with MoE blocks, Finished hears each of the stage's chunks once per
// step, its units all together in the order nn.GPT.Units lists them —
// from inside the fused backward of chunk 0, after the last W of every
// split chunk.
func TestRunnerReportsFollowUnitsOrder(t *testing.T) {
	const stages, virtual, micro = 2, 2, 4
	mpi.NewWorld(stages, nil).Run(func(c *mpi.Comm) {
		model := tinyModel(true)
		r := tinyRunner(c, model, virtual, micro)
		var got []int
		r.Finished = func(u int) { got = append(got, u) }
		for step := 0; step < 2; step++ {
			got = got[:0]
			r.Step(tinyBatches(micro), 1)
			left := map[int][]int{} // each chunk's table, by its first unit
			for v := 0; v < virtual; v++ {
				ch := r.Part[r.global(v)]
				var ids []int
				for _, u := range model.Units(ch.Lo, ch.Hi) {
					ids = append(ids, u.ID)
				}
				left[ids[0]] = ids
			}
			for rest := got; len(rest) > 0; {
				want, ok := left[rest[0]]
				if !ok || len(rest) < len(want) || !slices.Equal(rest[:len(want)], want) {
					t.Errorf("stage %d step %d: reports %v are no sequence of its chunks' tables %v", c.Rank(), step, got, left)
					break
				}
				delete(left, rest[0])
				rest = rest[len(want):]
			}
			if len(left) > 0 && !t.Failed() {
				t.Errorf("stage %d step %d: chunks %v never reported", c.Rank(), step, left)
			}
		}
	})
}
