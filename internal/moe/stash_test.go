package moe

import (
	"fmt"
	"math"
	"testing"

	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/tensor"
)

// stashGrads trains one step of micro-batches on a model whose even
// blocks hold the MoE layer newFFN builds, and returns every gradient.
// With inFlight the forwards all run first, each pass stashed out of
// the layers (nn.GPT.Stash) while the next one runs, and the backwards
// follow in order; otherwise each micro-batch runs forward then
// backward before the next one starts.
func stashGrads(newFFN func(name string, r *tensor.RNG) nn.Layer, policy []bool, inFlight bool) map[string][]float32 {
	cfg := nn.GPTConfig{Vocab: 16, Dim: 8, Heads: 2, Layers: 3, SeqLen: 4, FFNHidden: 16}
	g := nn.NewGPT(cfg, tensor.NewRNG(5), func(block int, name string, r *tensor.RNG) nn.Layer {
		if block%2 == 1 {
			return nn.NewFeedForward(name+".dense", r, cfg.Dim, cfg.FFNHidden)
		}
		return newFFN(name, r)
	})
	g.RecomputePolicy = policy
	nn.ZeroGrads(g.Params())
	data := tensor.NewRNG(9)
	var loss nn.SoftmaxCrossEntropy
	passes := make([]*nn.Pass, 3)
	dlogits := make([]*tensor.Tensor, len(passes))
	for i := range passes {
		ids, targets := make([]int, 2*cfg.SeqLen), make([]int, 2*cfg.SeqLen)
		for j := range ids {
			ids[j], targets[j] = data.Intn(cfg.Vocab), data.Intn(cfg.Vocab)
		}
		if !inFlight {
			loss.Forward(g.Forward(ids), targets)
			g.Backward(loss.Backward())
			continue
		}
		passes[i] = new(nn.Pass)
		x := g.ForwardBlocks(passes[i], 0, cfg.Layers, g.EmbedForward(ids))
		loss.Forward(g.HeadForward(x), targets)
		dlogits[i] = loss.Backward()
		g.Stash(passes[i])
	}
	if inFlight {
		for i, p := range passes {
			g.BackwardPass(p, dlogits[i], nil)
		}
	}
	out := map[string][]float32{}
	for _, p := range g.Params() {
		out[p.Name] = append([]float32(nil), p.G.Data...)
	}
	return out
}

// TestStashedPassesMatchSequential: passes kept in flight through the
// stash give every gradient bit the sequential passes give, for the MoE
// layer in the FFN slot on one rank and on four — there with its combine
// legs split across supernodes and a shadowed expert — with no block,
// every other block or every block under recompute.
func TestStashedPassesMatchSequential(t *testing.T) {
	gc := GateConfig{Dim: 8, NumExperts: 4, TopK: 2, AuxLossWeight: 0.01, ZLossWeight: 0.001}
	policies := [][]bool{nil, {true, false, true}, {true, true, true}}
	compare := func(t *testing.T, want, got map[string][]float32) {
		for name, w := range want {
			for i := range w {
				if math.Float32bits(got[name][i]) != math.Float32bits(w[i]) {
					t.Errorf("%s[%d]: %v in flight, %v in sequence", name, i, got[name][i], w[i])
					return
				}
			}
		}
	}
	for pi, policy := range policies {
		t.Run(fmt.Sprintf("local/policy%d", pi), func(t *testing.T) {
			local := func(name string, r *tensor.RNG) nn.Layer { return NewLocalMoE(name, r, gc, 16) }
			compare(t, stashGrads(local, policy, false), stashGrads(local, policy, true))
		})
		t.Run(fmt.Sprintf("dist/policy%d", pi), func(t *testing.T) {
			mpi.NewWorld(4, distTestTopo()).Run(func(c *mpi.Comm) {
				dist := func(name string, r *tensor.RNG) nn.Layer {
					m := NewDistMoEComm(name, r, gc, 16, c, Auto, CommConfig{Overlap: true})
					if err := m.SetShadows([]int{1}); err != nil {
						panic(err)
					}
					return m
				}
				compare(t, stashGrads(dist, policy, false), stashGrads(dist, policy, true))
			})
		})
	}
}
