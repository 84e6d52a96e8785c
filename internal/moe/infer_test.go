package moe

import (
	"testing"

	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/tensor"
)

// Batch invariance of the local inference path: a token must get
// bitwise the same output whether it is routed alone or inside a
// larger batch. This is the property continuous batching relies on.
func TestLocalMoEInferBatchInvariant(t *testing.T) {
	const tokens, d = 6, 8
	r := tensor.NewRNG(3)
	m := NewLocalMoE("moe", r, gateCfg(d, 4, 2), 16)
	x := tensor.Randn(tensor.NewRNG(5), 1, tokens, d)

	batched := m.Infer(x)
	for tk := 0; tk < tokens; tk++ {
		one := tensor.New(1, d)
		copy(one.Row(0), x.Row(tk))
		solo := m.Infer(one)
		for j := 0; j < d; j++ {
			if solo.At(0, j) != batched.At(tk, j) {
				t.Fatalf("token %d col %d: solo %v != batched %v", tk, j, solo.At(0, j), batched.At(tk, j))
			}
		}
	}
}

// Inference routing must agree with the training gate when noise,
// capacity, and aux losses are out of the picture.
func TestInferRouteMatchesTrainingGate(t *testing.T) {
	const tokens, d = 10, 8
	r := tensor.NewRNG(9)
	g := NewGate("gate", r, gateCfg(d, 8, 2))
	x := tensor.Randn(tensor.NewRNG(10), 1, tokens, d)
	train := g.Forward(x)
	infer := g.InferRoute(x)
	for tk := 0; tk < tokens; tk++ {
		for k, a := range infer[tk] {
			ta := train.Assign[tk][k]
			if a.Expert != ta.Expert {
				t.Fatalf("token %d k=%d: infer expert %d != train %d", tk, k, a.Expert, ta.Expert)
			}
			diff := a.Weight - ta.Weight
			if diff < -1e-5 || diff > 1e-5 {
				t.Fatalf("token %d k=%d: infer weight %v != train %v", tk, k, a.Weight, ta.Weight)
			}
		}
	}
}

// DistMoE.Infer must agree with the per-token reference built from the
// same seed (same gate, same experts, all local), for every wire
// configuration and every refactor-sensitive batch shape, and record
// self-charged stats when SimRate is set. Each shape's virtual clocks
// and wire counters are pinned in one digest per configuration; the
// exchanges' step lists set the clocks. Under FP16 the direct exchange
// must return the hierarchical one's bits.
func TestDistMoEInferMatchesLocal(t *testing.T) {
	const P, d, hidden = 4, 8, 16
	cfg := gateCfg(d, 8, 2)
	configs := []CommConfig{
		{Codec: mpi.FP32Wire},
		{Codec: mpi.FP32Wire, Overlap: true},
		{Codec: mpi.FP16Wire, Overlap: true},
	}
	pinned := map[string][3]uint64{ // one clock/wire digest per config
		"uniform":          {0x8b1983bfbf2645dc, 0x1070e2c905ed1353, 0x14156cac87503b91},
		"skewed":           {0x7489a12f95388963, 0x3598e3f3c6398570, 0xcdb9fb75a8e164ed},
		"zero-token-rank":  {0xd794022ac9a57953, 0x2da5aeb8b846c925, 0xc378d14d6117953c},
		"single-supernode": {0x2321527d758ae2f3, 0x4b705940708ebffb, 0xa2eab519dceaf9c7},
	}
	for _, tc := range tripCases {
		if tc.shadow != nil {
			continue // Infer never consults shadow replicas
		}
		t.Run(tc.name, func(t *testing.T) {
			for i, cc := range configs {
				infer := func(algo A2AAlgo) ([]*tensor.Tensor, []InferStats, tripSig) {
					outs := make([]*tensor.Tensor, P)
					stats := make([]InferStats, P)
					now := make([]float64, P)
					wire := make([]mpi.WireStats, P)
					w := mpi.NewWorld(P, tc.topo())
					w.Run(func(c *mpi.Comm) {
						m := NewDistMoEComm("moe", tensor.NewRNG(21), cfg, hidden, c, algo, cc)
						m.SimRate = 1e9
						outs[c.Rank()] = m.Infer(tc.input(0, c.Rank(), d))
						stats[c.Rank()] = m.LastInferStats()
						now[c.Rank()] = c.Now()
						wire[c.Rank()] = c.WireStats()
					})
					var sig tripSig
					sig.add(cc.String(), now, wire)
					return outs, stats, sig
				}
				outs, stats, sig := infer(Hierarchical)
				sig.check(t, pinned[tc.name][i])
				if cc.Codec == mpi.FP16Wire {
					// Each cross-supernode row rounds once, at its source,
					// whichever legs it then takes.
					direct, _, _ := infer(Direct)
					for rank := range outs {
						if !bitEqual(outs[rank], direct[rank]) {
							t.Fatalf("%v rank %d: hierarchical and direct infer differ", cc, rank)
						}
					}
				}
				ref := newRefMoE("moe", tensor.NewRNG(21), cfg, hidden)
				tol := float32(1e-5)
				if cc.Codec == mpi.FP16Wire {
					tol = 2e-2 // fp16 wire rounds cross-supernode payloads
				}
				totalRows, wantRows := 0, 0
				for rank := range outs {
					if want := ref.forward(tc.input(0, rank, d), true); !outs[rank].AllClose(want, tol) {
						t.Fatalf("%v rank %d: dist infer differs from the reference", cc, rank)
					}
					if !stats[rank].Charged {
						t.Fatalf("%v rank %d: SimRate set but stats not marked charged", cc, rank)
					}
					totalRows += stats[rank].Rows
					wantRows += tc.tokens(rank) * cfg.TopK
				}
				if totalRows != wantRows {
					t.Fatalf("%v: expert rows %d, want %d", cc, totalRows, wantRows)
				}
			}
		})
	}
}

// Ranks with no resident tokens must still participate in the
// collective dispatch without deadlocking or corrupting busy ranks.
func TestDistMoEInferZeroTokenRank(t *testing.T) {
	const P, tokens, d, hidden = 4, 5, 8, 16
	cfg := gateCfg(d, 8, 2)
	outs := make([]*tensor.Tensor, P)
	w := mpi.NewWorld(P, distTestTopo())
	w.Run(func(c *mpi.Comm) {
		m := NewDistMoEComm("moe", tensor.NewRNG(33), cfg, hidden, c, Hierarchical, CommConfig{Codec: mpi.FP16Wire, Overlap: true})
		n := tokens
		if c.Rank()%2 == 1 {
			n = 0
		}
		x := tensor.Randn(tensor.NewRNG(200+uint64(c.Rank())), 1, n, d)
		outs[c.Rank()] = m.Infer(x)
	})
	for rank, out := range outs {
		wantRows := tokens
		if rank%2 == 1 {
			wantRows = 0
		}
		if out.Shape[0] != wantRows {
			t.Fatalf("rank %d: got %d output rows, want %d", rank, out.Shape[0], wantRows)
		}
	}
}

// The promoted end-to-end satellite: greedy KV-cache generation
// through a GPT with MoE FFNs must be bit-exact against the
// full-reforward reference.
func TestGenerateKVWithMoEBitExact(t *testing.T) {
	cfg := nn.GPTConfig{Vocab: 32, Dim: 16, Heads: 4, Layers: 2, SeqLen: 20, FFNHidden: 32}
	r := tensor.NewRNG(17)
	g := nn.NewGPT(cfg, r, func(_ int, name string, rr *tensor.RNG) nn.Layer {
		return NewLocalMoE(name, rr, gateCfg(cfg.Dim, 4, 2), 32)
	})
	prompt := []int{7, 3, 3, 29}
	kv := g.GenerateKV(prompt, 10, 0, nil)
	ref := g.GenerateReforward(prompt, 10, 0, nil)
	for i := range kv {
		if kv[i] != ref[i] {
			t.Fatalf("token %d: kv %d != reforward %d (kv=%v ref=%v)", i, kv[i], ref[i], kv, ref)
		}
	}
}
