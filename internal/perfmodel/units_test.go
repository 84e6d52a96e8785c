package perfmodel

import (
	"fmt"
	"testing"

	"bagualu/internal/data"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/parallel"
	"bagualu/internal/tensor"
	"bagualu/internal/train"
)

// TestUnitsMatchEngine is the contract between the step walk's unit
// table and the engine's: for sampled specs (width, depth, FFN and expert
// widths, MoEEvery, expert count, top-k) and sampled chunk bounds,
// ModelSpec.Units lists the units nn.GPT.Units lists — same IDs in the
// same order, the same dense and expert element counts — and prices each
// as the engine's runner does (pipe.Runner.Flops, with the MoE layers
// not charging their own GEMMs, so the expert units carry theirs).
func TestUnitsMatchEngine(t *testing.T) {
	r := tensor.NewRNG(11)
	for trial := 0; trial < 24; trial++ {
		spec := ModelSpec{
			Vocab: 8 + r.Intn(24), Dim: 4 * (1 + r.Intn(4)), Heads: 2, Layers: 1 + r.Intn(6),
			SeqLen: 2 + r.Intn(6), FFNHidden: 4 + r.Intn(12),
			NumExperts: 1 + r.Intn(6), MoEHidden: 4 + r.Intn(12), MoEEvery: r.Intn(3),
		}
		spec.TopK = 1 + r.Intn(spec.NumExperts)
		name := fmt.Sprintf("trial %d %+v", trial, spec)
		units, flops := engineUnits(t, spec)
		lo := r.Intn(spec.Layers)
		hi := lo + 1 + r.Intn(spec.Layers-lo)
		for _, c := range [][2]int{{0, spec.Layers}, {lo, hi}} {
			got, want := spec.Units(c[0], c[1]), units(c[0], c[1])
			if len(got) != len(want) {
				t.Fatalf("%s blocks %v: %d units, the engine's table has %d", name, c, len(got), len(want))
			}
			for i, u := range got {
				e := want[i]
				if u.ID != e.ID || u.Block != e.Block || u.Experts != e.Experts || u.Params != int64(nn.NumParams(e.Params)) {
					t.Fatalf("%s blocks %v unit %d: %+v, the engine's {ID:%d Block:%d Experts:%v Params:%d}",
						name, c, i, u, e.ID, e.Block, e.Experts, nn.NumParams(e.Params))
				}
				fwd, wgrad := spec.unitFlops(u)
				rows := float64(spec.SeqLen) // one sequence per micro-batch
				if ef, ew := flops(e); fwd*rows != ef || wgrad*rows != ew {
					t.Fatalf("%s unit %d: %v / %v FLOPs, the runner prices %v / %v", name, u.ID, fwd*rows, wgrad*rows, ef, ew)
				}
			}
		}
	}
}

// engineUnits builds spec's model on a one-rank engine and returns its
// unit table and the runner's price of a unit.
func engineUnits(t *testing.T, spec ModelSpec) (func(lo, hi int) []nn.Unit, func(nn.Unit) (float64, float64)) {
	t.Helper()
	var e *parallel.Engine
	var err error
	mpi.NewWorld(1, nil).Run(func(c *mpi.Comm) {
		e, err = parallel.NewEngine(c, parallel.Strategy{DataParallel: 1, ExpertParallel: 1},
			parallel.ModelConfig{
				GPT: nn.GPTConfig{
					Vocab: spec.Vocab, Dim: spec.Dim, Heads: spec.Heads,
					Layers: spec.Layers, SeqLen: spec.SeqLen, FFNHidden: spec.FFNHidden,
				},
				NumExperts: spec.NumExperts, TopK: spec.TopK, MoEHidden: spec.MoEHidden, MoEEvery: spec.MoEEvery,
				CapacityFactor: 1.25,
			},
			data.CorpusConfig{Vocab: spec.Vocab, SeqLen: spec.SeqLen, Zipf: 1},
			train.Config{Batch: 1}, train.OptimizerFactory(false, 0)(), 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	return e.Model.Units, e.Trainer.Runner.Flops
}
