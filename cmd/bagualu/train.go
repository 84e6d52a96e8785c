package main

import (
	"flag"
	"fmt"
	"io"

	"bagualu/internal/ckpt"
	"bagualu/internal/data"
	"bagualu/internal/metrics"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/parallel"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/train"
)

// runTrain is `bagualu train`: it spins up a rank-per-goroutine
// world, builds the MoDa engine on every rank, and trains a
// scaled-down BaGuaLu model on the synthetic multimodal corpus.
//
//	bagualu train -dp 2 -ep 4 -steps 50 -precision mixed
func runTrain(args []string, out io.Writer) {
	fs := flag.NewFlagSet("bagualu train", flag.ExitOnError)
	var (
		dp        = fs.Int("dp", 2, "data-parallel degree")
		ep        = fs.Int("ep", 4, "expert-parallel degree")
		pp        = fs.Int("pp", 1, "pipeline-parallel stages (folds [pp, dp, ep]; needs accum >= pp)")
		steps     = fs.Int("steps", 30, "training steps")
		route     = fs.String("route", "token-choice", "routing mode: token-choice|capacity-drop|expert-choice")
		precision = fs.String("precision", "fp32", "fp32|fp16|mixed|bf16")
		accum     = fs.Int("accum", 1, "gradient-accumulation micro-batches per step")
		recEvery  = fs.Int("recompute-every", 0, "selective recomputation: recompute every N-th block (0 = off)")
		zero      = fs.Bool("zero", false, "ZeRO-shard Adam optimizer states across data-parallel peers")
		offload   = fs.Bool("offload", false, "offload optimizer state to the host-memory tier (priced on the virtual clock)")
		ckptDir   = fs.String("checkpoint", "", "directory for the final sharded checkpoint (`exp R13 -ckpt` serves it)")
		rebalance = fs.Int("rebalance", 0, "migrate experts to balance load every N steps (0 = off)")
		m         = modelDims{vocab: 256, dim: 64, heads: 4, layers: 2, seq: 32, experts: 8, topk: 2}
		seed      = uint64(42)
	)
	m.register(fs)
	seedFlag(fs, &seed)
	fs.Parse(args)
	const (
		batch    = 4
		logEvery = 5
	)
	lr := float32(3e-3)
	if m.hidden == 0 {
		m.hidden = 4 * m.dim
	}
	prec, ok := map[string]sunway.Precision{
		"fp32": sunway.FP32, "fp16": sunway.FP16, "mixed": sunway.Mixed, "bf16": sunway.BF16,
	}[*precision]
	if !ok {
		check(fmt.Errorf("unknown precision %q", *precision))
	}
	mode := must(moe.ParseRouteMode(*route))

	strat := parallel.Strategy{DataParallel: *dp, ExpertParallel: *ep, Pipeline: *pp}
	mc := parallel.ModelConfig{
		GPT: nn.GPTConfig{
			Vocab: m.vocab, Dim: m.dim, Heads: m.heads, Layers: m.layers,
			SeqLen: m.seq, FFNHidden: m.hidden,
		},
		NumExperts:     m.experts,
		TopK:           m.topk,
		CapacityFactor: 1.5,
		RouteMode:      mode,
		AuxLossWeight:  0.01,
		MoEHidden:      m.hidden,
		MoEEvery:       1,
		Algo:           moe.Auto,
		RecomputeEvery: *recEvery,
	}
	cc := data.CorpusConfig{
		Vocab: m.vocab, SeqLen: m.seq, Zipf: 1.0, Determinism: 0.85,
		ImageFrac: 0.25, Seed: seed,
	}
	tc := train.Config{
		Batch:     batch,
		Precision: prec,
		Schedule:  train.WarmupCosine{Peak: lr, Floor: lr / 10, Warmup: *steps / 10, Total: *steps},
		ClipNorm:  1,
		Accum:     *accum,
	}
	// One optimizer instance per rank: state is rank-local (and the
	// ZeRO optimizer binds to rank-specific communicators).
	optFor := train.OptimizerFactory(*zero, 0.01)

	machine, topo := twoSupernodes(strat.Size())
	fmt.Fprintf(out, "BaGuaLu-sim training: %d ranks (dp=%d x ep=%d), %d experts/layer, precision=%s\n",
		strat.Size(), *dp, *ep, m.experts, prec)

	var phases *metrics.PhaseMeter
	world := onWorld(strat.Size(), topo, func(c *mpi.Comm) {
		e := must(parallel.NewEngine(c, strat, mc, cc, tc, optFor(), seed))
		if *offload {
			e.EnableOffload(machine.HostMemBWGiBs)
		}
		if c.Rank() == 0 {
			fmt.Fprintf(out, "global params: %d (%.2f M), tokens/step: %d, opt state/rank: %.1f KiB\n",
				e.NumParamsGlobal(), float64(e.NumParamsGlobal())/1e6, e.GlobalBatchTokens(),
				float64(e.OptStateBytes())/(1<<10))
		}
		for s := 0; s < *steps; s++ {
			st := e.Step()
			if c.Rank() == 0 && (s%logEvery == 0 || s == *steps-1) {
				fmt.Fprintf(out, "step %3d  loss %.4f  aux %.4f  overflow %4d  gnorm %.3f  simtime %.3gs  tok/s(sim) %.3g  sync %.2gs  compute %.2gs  gather %.2gs\n",
					st.Step, st.Loss, st.AuxLoss, st.Overflow, st.GradNorm, st.SimTime, st.TokensPer,
					st.GradSync, st.ComputeSim, st.ParamGather)
			}
			if *rebalance > 0 && s > 0 && s%*rebalance == 0 && len(e.MoELayers()) > 0 {
				l := e.MoELayers()[0]
				counts := l.GatherExpertCounts(c)
				before := l.Placement().Imbalance(counts)
				moves := must(e.RebalanceExperts())
				if c.Rank() == 0 {
					fmt.Fprintf(out, "        rebalanced %d experts: imbalance %.2f -> %.2f\n",
						moves, before, l.Placement().Imbalance(counts))
				}
			}
		}
		if c.Rank() == 0 {
			phases = c.Phases()
		}
		if *ckptDir != "" {
			saveCheckpoint(e, *ckptDir)
		}
	})
	if *ckptDir != "" {
		fmt.Fprintf(out, "checkpoint written to %s (%d shards)\n", *ckptDir, strat.Size())
	}

	if phases != nil && phases.Total() > 0 {
		fmt.Fprintf(out, "\nphases (rank 0, virtual seconds):")
		for _, name := range phases.Names() {
			if s := phases.Seconds(name); s > 0 {
				fmt.Fprintf(out, "  %s %.3g", name, s)
			}
		}
		fmt.Fprintln(out)
	}

	tr := world.Stats().Snapshot()
	fmt.Fprintf(out, "\ntraffic: node %.1f MiB / sn %.1f MiB / machine %.1f MiB; virtual makespan %.3gs\n",
		float64(tr.Bytes[simnet.NodeLevel])/(1<<20),
		float64(tr.Bytes[simnet.SupernodeLevel])/(1<<20),
		float64(tr.Bytes[simnet.MachineLevel])/(1<<20),
		world.MaxTime())
}

// saveCheckpoint writes this rank's shard of the engine's state — a
// collective every rank joins, so the expert shards of all ranks land
// under one committed manifest. The layout record is the one the
// fault-tolerant loop writes, so ckpt.Restore and LoadForInference
// read the result like any in-run checkpoint.
func saveCheckpoint(e *parallel.Engine, dir string) {
	wr := ckpt.NewWriter(ckpt.Config{Dir: dir}, e.Comm)
	t := e.Trainer
	check(wr.Save(int64(t.StepCount()), t.CheckpointHeader(), e.CheckpointShard(), e.CheckpointLayout()))
	check(wr.WaitIdle())
}
