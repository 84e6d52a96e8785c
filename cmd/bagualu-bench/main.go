// Command bagualu-bench regenerates the in-simulator scaling
// experiments: weak scaling (R2), strong scaling (R3), the per-step
// communication/computation breakdown (R9) of hybrid MoDa training,
// and the memory-capacity experiments — analytic max trainable
// parameters per node for each memory-wall lever (R15) and measured
// ZeRO gradient-sync traffic and optimizer-state footprint (R16) —
// using virtual network time so topology effects are visible
// regardless of host hardware.
package main

import (
	"flag"
	"fmt"
	"os"

	"bagualu/internal/data"
	"bagualu/internal/metrics"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/parallel"
	"bagualu/internal/perfmodel"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/train"
)

func modelCfg(experts int, algo moe.A2AAlgo) parallel.ModelConfig {
	return parallel.ModelConfig{
		GPT: nn.GPTConfig{
			Vocab: 128, Dim: 32, Heads: 2, Layers: 2, SeqLen: 16, FFNHidden: 64,
		},
		NumExperts:     experts,
		TopK:           2,
		CapacityFactor: 1.5,
		AuxLossWeight:  0.01,
		MoEHidden:      64,
		MoEEvery:       1,
		Algo:           algo,
	}
}

// run executes `steps` training steps on `ranks` ranks and returns
// the mean per-step virtual time and MoE wall breakdown.
func run(ranks, batch, steps, experts int, algo moe.A2AAlgo) (simPerStep float64, tokensPerSimSec float64, moeT moe.Timing) {
	strat := parallel.Strategy{DataParallel: 1, ExpertParallel: ranks}
	if ranks >= 4 {
		strat = parallel.Strategy{DataParallel: 2, ExpertParallel: ranks / 2}
	}
	nodes := (ranks + 1) / 2
	sns := (nodes + 1) / 2
	if sns < 1 {
		sns = 1
	}
	machine := sunway.TestMachine(sns, 2)
	topo := simnet.New(machine, 2)
	w := mpi.NewWorld(ranks, topo)
	cc := data.CorpusConfig{Vocab: 128, SeqLen: 16, Zipf: 1, Determinism: 0.85, Seed: 9}
	tc := train.Config{Batch: batch, Precision: sunway.FP32, Schedule: train.ConstantLR(1e-3), ClipNorm: 1}

	var sim float64
	var tps float64
	var tm moe.Timing
	w.Run(func(c *mpi.Comm) {
		e, err := parallel.NewEngine(c, strat, modelCfg(experts, algo), cc, tc, train.NewAdam(0), 5)
		if err != nil {
			panic(err)
		}
		// Charge virtual compute at 30% of a half-node's FP32 peak
		// (2 ranks per node), so virtual throughput reflects the
		// modeled machine rather than the host.
		e.SetComputeRate(machine.NodeFlops(sunway.FP32) * 0.3 / 2)
		for s := 0; s < steps; s++ {
			st := e.Step()
			if c.Rank() == 0 {
				sim += st.SimTime
				tps = st.TokensPer
				tm.Gate += st.MoE.Gate
				tm.Dispatch += st.MoE.Dispatch
				tm.Expert += st.MoE.Expert
				tm.Combine += st.MoE.Combine
			}
		}
	})
	return sim / float64(steps), tps, tm
}

// runMem runs data-parallel training of a dense model (experts off so
// every gradient byte is sync traffic) and reports the per-step
// machine traffic, the per-rank optimizer-state footprint, and the
// mean virtual step time. optFor builds one optimizer per rank.
func runMem(ranks, batch, steps int, optFor func() train.Optimizer) (bytesPerStep float64, optBytes int64, simPerStep float64) {
	strat := parallel.Strategy{DataParallel: ranks, ExpertParallel: 1}
	mc := modelCfg(2, moe.Auto)
	mc.MoEEvery = 0 // dense: all traffic is gradient sync
	machine := sunway.TestMachine(1, ranks)
	topo := simnet.New(machine, 1)
	w := mpi.NewWorld(ranks, topo)
	cc := data.CorpusConfig{Vocab: 128, SeqLen: 16, Zipf: 1, Determinism: 0.85, Seed: 9}
	tc := train.Config{Batch: batch, Precision: sunway.FP32, Schedule: train.ConstantLR(1e-3), ClipNorm: 1}

	var sim float64
	w.Run(func(c *mpi.Comm) {
		e, err := parallel.NewEngine(c, strat, mc, cc, tc, optFor(), 5)
		if err != nil {
			panic(err)
		}
		e.SetComputeRate(machine.NodeFlops(sunway.FP32) * 0.3)
		for s := 0; s < steps; s++ {
			st := e.Step()
			if c.Rank() == 0 {
				sim += st.SimTime
			}
		}
		if c.Rank() == 0 {
			optBytes = e.OptStateBytes()
		}
	})
	return float64(w.Stats().TotalBytes()) / float64(steps), optBytes, sim / float64(steps)
}

func main() {
	var (
		maxRanks = flag.Int("max-ranks", 16, "largest world size")
		steps    = flag.Int("steps", 5, "steps per configuration")
		batch    = flag.Int("batch", 4, "sequences per rank (weak scaling)")
		csv      = flag.Bool("csv", false, "emit CSV")
	)
	flag.Parse()

	emit := func(t *metrics.Table) {
		if *csv {
			t.WriteCSV(os.Stdout)
		} else {
			t.WriteText(os.Stdout)
		}
		fmt.Println()
	}

	// R2: weak scaling — per-rank batch fixed, experts scale with
	// ranks (one pool of 2·ranks experts).
	weak := metrics.NewTable("R2: weak scaling (fixed batch/rank, experts ∝ ranks)",
		"ranks", "simtime/step(s)", "tokens/simsec", "efficiency-vs-2")
	var base float64
	for p := 2; p <= *maxRanks; p *= 2 {
		sim, tps, _ := run(p, *batch, *steps, 2*p, moe.Auto)
		if p == 2 {
			base = tps / float64(p)
		}
		weak.AddRow(p, sim, fmt.Sprintf("%.4g", tps),
			fmt.Sprintf("%.2f", tps/float64(p)/base))
	}
	emit(weak)

	// R3: strong scaling — fixed global batch.
	strong := metrics.NewTable("R3: strong scaling (fixed global batch)",
		"ranks", "batch/rank", "simtime/step(s)", "speedup-vs-2")
	globalBatch := 2 * *batch * (*maxRanks / 2)
	var t2 float64
	for p := 2; p <= *maxRanks; p *= 2 {
		b := globalBatch / p
		if b < 1 {
			b = 1
		}
		sim, _, _ := run(p, b, *steps, 16, moe.Auto)
		if p == 2 {
			t2 = sim
		}
		strong.AddRow(p, b, sim, fmt.Sprintf("%.2f", t2/sim))
	}
	emit(strong)

	// R9: phase breakdown at the largest configuration, per a2a
	// algorithm.
	br := metrics.NewTable("R9: MoE phase wall-time breakdown (s, summed over steps)",
		"a2a", "gate", "dispatch", "expert", "combine")
	for _, algo := range []moe.A2AAlgo{moe.Direct, moe.Hierarchical} {
		_, _, tm := run(*maxRanks, *batch, *steps, 2**maxRanks, algo)
		br.AddRow(algo.String(), tm.Gate, tm.Dispatch, tm.Expert, tm.Combine)
	}
	emit(br)

	// R15: analytic max trainable parameters per 96 GiB node, per
	// memory-wall lever, on a 64-node supernode slice at mixed
	// precision (bisected over model width by perfmodel.Memory).
	dep := perfmodel.Deployment{
		Machine: sunway.TestMachine(1, 64), RanksPerNode: 1,
		DataParallel: 64, ExpertParallel: 1,
		BatchPerRank: 4, Precision: sunway.Mixed, Efficiency: 0.35,
		A2A: perfmodel.A2AHierarchical,
	}
	spec := perfmodel.ModelSpec{
		Name: "r15", Vocab: 50304, Dim: 1024, Heads: 16, Layers: 24,
		SeqLen: 1024, FFNHidden: 4096,
	}
	cap15 := metrics.NewTable("R15: max trainable params per node (mixed precision, 64 nodes, bisected width)",
		"config", "max-params", "dim", "mem GiB/node", "step(s)", "vs-baseline")
	var base15 float64
	for _, lever := range []struct {
		name string
		set  func(*perfmodel.Deployment)
	}{
		{"baseline (replicated opt)", func(*perfmodel.Deployment) {}},
		{"+zero", func(d *perfmodel.Deployment) { d.ZeRO = true }},
		{"+zero +recompute", func(d *perfmodel.Deployment) { d.ZeRO = true; d.RecomputeFraction = 1 }},
		{"+zero +recompute +offload", func(d *perfmodel.Deployment) {
			d.ZeRO = true
			d.RecomputeFraction = 1
			d.OffloadOptState = true
		}},
	} {
		dd := dep
		lever.set(&dd)
		n, best, err := dd.MaxTrainableParams(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		rep, err := dd.Project(best)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if base15 == 0 {
			base15 = float64(n)
		}
		cap15.AddRow(lever.name, fmt.Sprintf("%.3gB", float64(n)/1e9), best.Dim,
			fmt.Sprintf("%.1f", rep.Mem.TotalGiB), fmt.Sprintf("%.3g", rep.StepTime),
			fmt.Sprintf("%.2fx", float64(n)/base15))
	}
	emit(cap15)

	// R16: measured gradient-sync traffic and optimizer-state bytes,
	// dense model over DP ranks: replicated Adam + ring all-reduce vs
	// ZeRO-sharded Adam + reduce-scatter/all-gather.
	r16 := metrics.NewTable("R16: measured grad-sync traffic & optimizer state (dense model)",
		"optimizer", "ranks", "sync KiB/step", "opt-state KiB/rank", "simtime/step(s)")
	p16 := *maxRanks
	if p16 > 8 {
		p16 = 8
	}
	for _, cfg := range []struct {
		name   string
		optFor func() train.Optimizer
	}{
		{"adam (replicated)", func() train.Optimizer { return train.NewAdam(0) }},
		{"zero (sharded)", func() train.Optimizer { return train.NewShardedAdam(0) }},
	} {
		bytes, ob, sim := runMem(p16, *batch, *steps, cfg.optFor)
		r16.AddRow(cfg.name, p16, fmt.Sprintf("%.1f", bytes/(1<<10)),
			fmt.Sprintf("%.1f", float64(ob)/(1<<10)), sim)
	}
	emit(r16)
}
