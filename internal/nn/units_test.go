package nn

import (
	"fmt"
	"slices"
	"testing"

	"bagualu/internal/tensor"
)

// reportingFFN stands in for an MoE layer: a dense FFN whose down
// projection plays its experts (ShardedParams) and whose backward
// reports them final before the rest of its backward runs.
type reportingFFN struct {
	*FeedForward
	report func(int)
	unit   int
}

func (f *reportingFFN) ShardedParams() []*Param { return f.Down.Params() }

func (f *reportingFFN) ReportExperts(report func(int), unit int) { f.report, f.unit = report, unit }

func (f *reportingFFN) Backward(d *tensor.Tensor) *tensor.Tensor {
	d = f.Down.Backward(d)
	if r := f.report; r != nil {
		f.report = nil
		r(f.unit)
	}
	return f.Up.Backward(f.Act.Backward(d))
}

// TestUnitsFollowBackwardOrder is the one-order contract of the unit
// table. Over generated models — layer counts, blocks whose FFN reports
// its experts, blocks the recompute policy marks — and generated
// partitions into chunks [lo, hi), chunks that start and end the model
// among them, BackwardPass reports each chunk's units in exactly the
// order Units lists them, and the units of a partition's chunks hold
// every parameter of GPT.Params once and nothing else.
func TestUnitsFollowBackwardOrder(t *testing.T) {
	rng := tensor.NewRNG(19)
	for trial := 0; trial < 24; trial++ {
		cfg := GPTConfig{Vocab: 16, Dim: 8, Heads: 2, Layers: 1 + rng.Intn(5), SeqLen: 4, FFNHidden: 8}
		reports := make([]bool, cfg.Layers)
		for i := range reports {
			reports[i] = rng.Intn(2) == 0
		}
		g := NewGPT(cfg, tensor.NewRNG(uint64(trial)), func(block int, name string, r *tensor.RNG) Layer {
			ff := NewFeedForward(name, r, cfg.Dim, cfg.FFNHidden)
			if reports[block] {
				return &reportingFFN{FeedForward: ff}
			}
			return ff
		})
		g.RecomputePolicy = make([]bool, cfg.Layers)
		for i := range g.RecomputePolicy {
			g.RecomputePolicy[i] = rng.Intn(3) == 0
		}
		// A partition: each boundary between blocks is a cut or not.
		bounds := []int{0}
		for i := 1; i < cfg.Layers; i++ {
			if rng.Intn(2) == 0 {
				bounds = append(bounds, i)
			}
		}
		bounds = append(bounds, cfg.Layers)
		name := fmt.Sprintf("trial %d: experts %v, chunks %v", trial, reports, bounds)

		rows := 2 * cfg.SeqLen
		ids := make([]int, rows)
		for i := range ids {
			ids[i] = rng.Intn(cfg.Vocab)
		}
		held := map[*Param]int{}
		for c := 0; c+1 < len(bounds); c++ {
			lo, hi := bounds[c], bounds[c+1]
			var want []int
			for _, u := range g.Units(lo, hi) {
				want = append(want, u.ID)
				for _, p := range u.Params {
					held[p]++
				}
			}
			x := tensor.Randn(rng, 1, rows, cfg.Dim)
			if lo == 0 {
				x = g.EmbedForward(ids)
			}
			var p Pass
			out := g.ForwardBlocks(&p, lo, hi, x)
			d := tensor.Randn(rng, 1, rows, cfg.Dim)
			if hi == cfg.Layers {
				d = tensor.Randn(rng, 1, g.HeadForward(out).Shape...)
			}
			var got []int
			g.BackwardPass(&p, d, func(u int) { got = append(got, u) })
			if !slices.Equal(got, want) {
				t.Fatalf("%s: chunk [%d, %d) finished units %v, its table lists %v", name, lo, hi, got, want)
			}
		}
		for _, p := range g.Params() {
			if held[p] != 1 {
				t.Fatalf("%s: %s is in %d units", name, p.Name, held[p])
			}
			delete(held, p)
		}
		for p := range held {
			t.Fatalf("%s: a unit holds %s, which is no parameter of the model", name, p.Name)
		}
	}
}
