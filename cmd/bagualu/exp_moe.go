package main

import (
	"fmt"
	"time"

	"bagualu/internal/data"
	"bagualu/internal/metrics"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/simnet"
	"bagualu/internal/tensor"
	"bagualu/internal/train"
)

// expR6: gate load balance on a skewed corpus under capacity-drop
// routing (the mode where the capacity factor truncates and overflow
// exists), per top-k and auxiliary-loss weight.
func expR6(*options) []*metrics.Table {
	const experts, dim, steps = 8, 32, 3
	tab := metrics.NewTable(fmt.Sprintf("R6: expert load balance (zipf 1.2, %d experts, capacity factor 1.25, after %d steps)", experts, steps),
		"gating", "max/mean-load", "overflow-frac")
	for _, cse := range []struct {
		name string
		topk int
		aux  float32
	}{
		{"top1/no-aux", 1, 0},
		{"top1/aux", 1, 0.05},
		{"top2/no-aux", 2, 0},
		{"top2/aux", 2, 0.05},
	} {
		r := tensor.NewRNG(13)
		m := moe.NewLocalMoE("moe", r, moe.GateConfig{
			Dim: dim, NumExperts: experts, TopK: cse.topk, Mode: moe.CapacityDrop,
			CapacityFactor: 1.25, AuxLossWeight: cse.aux,
		}, 64)
		corpus := must(data.NewSynthetic(data.CorpusConfig{
			Vocab: 64, SeqLen: 32, Zipf: 1.2, Determinism: 0.8, Seed: 3,
		}))
		emb := nn.NewEmbedding("emb", r, 64, dim)
		opt := train.NewAdam(0)
		params := m.Params()
		var imbalance, overflowFrac float64
		for i := 0; i < steps; i++ {
			ids, _ := corpus.Batch(4)
			out := m.Forward(emb.ForwardIDs(ids))
			// Drive the gate with a simple self-supervised loss so
			// aux has something to trade off against.
			nn.ZeroGrads(params)
			m.Backward(tensor.Ones(out.Shape...))
			opt.Step(params, 1e-3)

			routing := m.LastRouting()
			maxC, total := 0, 0
			for _, cnt := range routing.Counts {
				total += cnt
				maxC = max(maxC, cnt)
			}
			imbalance = float64(maxC) / (float64(total) / experts)
			overflowFrac = float64(routing.Overflow) / float64(total+routing.Overflow)
		}
		tab.AddRow(cse.name, fmt.Sprintf("%.2f", imbalance), fmt.Sprintf("%.3f", overflowFrac))
	}
	return []*metrics.Table{tab}
}

// expR6b: load-aware expert management on 4 ranks over 2 supernodes.
// R6b: rank-load imbalance before and after LPT migration under a
// two-hot-expert gate. R6c: machine-level bytes of one step with and
// without shadowing a hot expert.
func expR6b(*options) []*metrics.Table {
	_, topo := topoFor(4, 2, 1)
	// skewed builds the layer with gate logits pinned per expert.
	skewed := func(c *mpi.Comm, seed uint64, dim, hidden, experts int, logits ...float32) *moe.DistMoE {
		m := moe.NewDistMoE("moe", tensor.NewRNG(seed), moe.GateConfig{
			Dim: dim, NumExperts: experts, TopK: 1, CapacityFactor: 100,
		}, hidden, c, moe.Auto)
		m.Gate.Proj.Weight.W.Zero()
		for j := 0; j < dim; j++ {
			for e, v := range logits {
				m.Gate.Proj.Weight.W.Set(v, j, e)
			}
		}
		return m
	}

	mig := metrics.NewTable("R6b: rank-load imbalance (max/mean) under a two-hot-expert gate",
		"placement", "imbalance")
	onWorld(4, topo, func(c *mpi.Comm) {
		dm := skewed(c, 31, 16, 32, 8, 5, -5)
		dm.Forward(tensor.Uniform(tensor.NewRNG(32+uint64(c.Rank())), -1, 1, 64, 16))
		counts := dm.GatherExpertCounts(c)
		before := dm.Placement().Imbalance(counts)
		check(dm.MigrateOpt(dm.Placement().Rebalanced(counts), nil))
		if c.Rank() == 0 {
			mig.AddRow("block", fmt.Sprintf("%.2f", before))
			mig.AddRow("LPT-migrated", fmt.Sprintf("%.2f", dm.Placement().Imbalance(counts)))
		}
	})

	sh := metrics.NewTable("R6c: inter-supernode bytes per step, one expert taking all traffic",
		"hot expert", "interSN-bytes")
	// Bytes of one forward+backward: a run that takes the step minus
	// one that stops after setup (the shadow weight broadcast), so no
	// rank has to reset shared counters while peers are sending.
	bytes := func(shadow, step bool) int64 {
		w := onWorld(4, topo, func(c *mpi.Comm) {
			m := skewed(c, 33, 8, 8, 4, 10)
			if shadow {
				check(m.SetShadows([]int{0}))
			}
			if step {
				m.Forward(tensor.Uniform(tensor.NewRNG(34+uint64(c.Rank())), 0.5, 1.5, 64, 8))
				m.Backward(tensor.Ones(64, 8))
			}
		})
		return w.Stats().Snapshot().Bytes[simnet.MachineLevel]
	}
	sh.AddRow("owner only", bytes(false, true)-bytes(false, false))
	sh.AddRow("shadowed on every rank", bytes(true, true)-bytes(true, false))
	return []*metrics.Table{mig, sh}
}

// expR14a times the grouped expert kernel (one batched GEMM per layer
// across all expert row blocks) against the per-expert loop it
// replaced: wall time of one forward+backward over a skewed expert
// batch. The skew is the regression shape the grouped dispatch exists
// for — one hot expert with half the rows, the rest split evenly, so
// at d=hidden=64 every cold block is below the tiled-GEMM threshold
// on its own.
func expR14a(*options) []*metrics.Table {
	const d, hidden, reps = 64, 64, 5
	tab := metrics.NewTable("R14a: grouped vs looped expert GEMM, skewed batch (ms/step, best of reps)",
		"experts", "rows", "grouped-ms", "looped-ms", "speedup")
	for _, experts := range []int{8, 32} {
		rows := make([]int, experts)
		total := 16 * experts
		rows[0] = total / 2
		for e := 1; e < experts; e++ {
			rows[e] = (total - rows[0]) / (experts - 1)
		}
		off := make([]int, experts+1)
		for e, c := range rows {
			off[e+1] = off[e] + c
		}
		r := tensor.NewRNG(21)
		ffns := make([]*nn.FeedForward, experts)
		for e := range ffns {
			ffns[e] = nn.NewFeedForward(fmt.Sprintf("e%d", e), r, d, hidden)
		}
		x := tensor.Randn(r, 1, off[experts], d)
		dout := tensor.Randn(r, 1, off[experts], d)

		eg := nn.NewExpertGroup(ffns)
		grouped := bestOf(reps, func() {
			_, st := eg.Forward(x, off)
			eg.Backward(dout, st, nil)
		})
		looped := bestOf(reps, func() {
			for e := range ffns {
				_, st := ffns[e].ForwardState(x.RowsView(off[e], off[e+1]))
				ffns[e].BackwardState(dout.RowsView(off[e], off[e+1]), st)
			}
		})
		tab.AddRow(experts, off[experts],
			fmt.Sprintf("%.3f", grouped*1e3),
			fmt.Sprintf("%.3f", looped*1e3),
			fmt.Sprintf("%.2fx", looped/grouped))
	}
	return []*metrics.Table{tab}
}

// bestOf returns the fastest of reps timed calls of f, in seconds.
func bestOf(reps int, f func()) float64 {
	best := 0.0
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		if dt := time.Since(t0).Seconds(); i == 0 || dt < best {
			best = dt
		}
	}
	return best
}
