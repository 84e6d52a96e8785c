package main

import (
	"fmt"
	"os"

	"bagualu/internal/ckpt"
	"bagualu/internal/data"
	"bagualu/internal/fault"
	"bagualu/internal/metrics"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/parallel"
	"bagualu/internal/sunway"
	"bagualu/internal/train"
)

const (
	ftFLOPS   = 2e8  // virtual FLOP/s per rank
	ftDiskBW  = 0.25 // checkpoint disk bandwidth per rank, GiB/s
	r11Steps  = 48
	r12Steps  = 24
	r12Drop   = 1e-3 // per-message wire drop probability (swept ×0, ×1, ×10)
	r12StragN = 2    // straggler ranks
	r12StragX = 4    // straggler delay multiplier
)

// ftConfig is the fault-tolerant run R11 sweeps. EP=1 keeps every
// shrink recoverable (any survivor count divides the expert pool), so
// the sweep measures checkpoint policy, not placement luck.
func ftConfig(ranks, steps int, pol *train.FaultPolicy) parallel.FTConfig {
	return parallel.FTConfig{
		Strategy: parallel.Strategy{DataParallel: ranks, ExpertParallel: 1},
		Model: parallel.ModelConfig{
			GPT:            nn.GPTConfig{Vocab: 64, Dim: 16, Heads: 2, Layers: 2, SeqLen: 8, FFNHidden: 32},
			NumExperts:     4,
			TopK:           2,
			CapacityFactor: 2,
			AuxLossWeight:  0.01,
			MoEHidden:      32,
			MoEEvery:       1,
		},
		Corpus:       data.CorpusConfig{Vocab: 64, SeqLen: 8, Zipf: 0.5, Determinism: 0.9, Seed: 7},
		Train:        train.Config{Batch: 4, Precision: sunway.FP32, Schedule: train.ConstantLR(1e-2), ClipNorm: 1},
		Seed:         11,
		Steps:        steps,
		Policy:       pol,
		OptFor:       func() train.Optimizer { return train.NewAdam(0) },
		ComputeFLOPS: ftFLOPS,
	}
}

// ftRun runs cfg on a fresh world, checkpointing into a scratch dir.
func ftRun(m machineFlags, cfg parallel.FTConfig, inj *fault.Injector) *parallel.FTResult {
	dir := must(os.MkdirTemp("", "bagualu-ft-*"))
	defer os.RemoveAll(dir)
	if cfg.Policy != nil {
		cfg.Policy.Dir = dir
	}
	return must(parallel.RunFaultTolerant(mpi.NewWorld(m.ranks, m.topo()), cfg, inj))
}

// observeRecovery adds one run's recovery time and its disk / interconnect
// sub-totals to a phase meter.
func observeRecovery(phases *metrics.PhaseMeter, t ckpt.Timing) {
	phases.Observe(metrics.PhaseRecovery, t.Recovery)
	phases.Observe(metrics.PhaseRecoveryRead, t.RecoveryRead)
	phases.Observe(metrics.PhaseRecoveryGather, t.RecoveryGather)
}

func phaseTable(title string, phases *metrics.PhaseMeter) *metrics.Table {
	t := metrics.NewTable(title, "phase", "seconds")
	for _, name := range phases.Names() {
		t.AddRow(name, fmt.Sprintf("%.4f", phases.Seconds(name)))
	}
	return t
}

// expR11: training goodput (useful virtual time / total virtual time)
// under injected rank failures, swept over the checkpoint interval,
// the machine MTBF and where the optimizer state lives — replicated
// Adam, which survivors still hold after a crash (the run rolls
// forward), or ZeRO moment shards, which are rank-exclusive (the run
// rolls back to the last checkpoint) — plus the per-step cost of
// synchronous versus asynchronous sharded checkpointing on a
// failure-free run.
func expR11(o *options) []*metrics.Table {
	m := o.machine
	ranks := m.ranks

	goodput := metrics.NewTable("R11a: goodput vs checkpoint interval x MTBF x optimizer state (async ckpt)",
		"mtbf-steps", "ckpt-interval", "opt-state", "crashes", "recoveries", "rolled-fwd", "completed", "goodput", "useful-sim-s", "total-sim-s")
	phases := metrics.NewPhaseMeter(metrics.PhaseCkptSnapshot, metrics.PhaseCkptFlush,
		metrics.PhaseRecovery, metrics.PhaseRecoveryRead, metrics.PhaseRecoveryGather)
	for _, mtbf := range []float64{16, 48} {
		for _, interval := range []int{2, 5, 10} {
			for _, zero := range []bool{false, true} {
				inj := must(fault.New(fault.Config{
					Seed: o.seed, Ranks: ranks, Steps: r11Steps, MTBFSteps: mtbf, MaxCrashes: ranks - 2,
				}))
				pol := &train.FaultPolicy{Interval: interval, Async: true, DiskBWGiBs: ftDiskBW, MaxRecoveries: ranks}
				cfg := ftConfig(ranks, r11Steps, pol)
				cfg.OptFor = train.OptimizerFactory(zero, 0)
				state := "replicated"
				if zero {
					state = "exclusive"
				}
				res := ftRun(m, cfg, inj)
				goodput.AddRow(mtbf, interval, state, res.Failures, res.Recoveries, res.RolledForward, res.Completed,
					fmt.Sprintf("%.3f", res.Goodput), fmt.Sprintf("%.4f", res.UsefulSim), fmt.Sprintf("%.4f", res.TotalSim))
				phases.Observe(metrics.PhaseCkptSnapshot, res.Timing.Snapshot)
				phases.Observe(metrics.PhaseCkptFlush, res.Timing.Flush)
				observeRecovery(phases, res.Timing)
			}
		}
	}

	// R11b: per-step checkpoint overhead, sync vs async, failure-free.
	over := metrics.NewTable("R11b: checkpoint overhead per step (virtual s, failure-free)",
		"ckpt-interval", "baseline-step", "sync-step", "async-step", "sync-overhead", "async-overhead")
	perStep := func(pol *train.FaultPolicy) float64 {
		return ftRun(m, ftConfig(ranks, r11Steps, pol), nil).TotalSim / r11Steps
	}
	base := perStep(nil)
	for _, interval := range []int{2, 5, 10} {
		sp := perStep(&train.FaultPolicy{Interval: interval, DiskBWGiBs: ftDiskBW, MaxRecoveries: 1})
		ap := perStep(&train.FaultPolicy{Interval: interval, Async: true, DiskBWGiBs: ftDiskBW, MaxRecoveries: 1})
		over.AddRow(interval,
			fmt.Sprintf("%.6f", base), fmt.Sprintf("%.6f", sp), fmt.Sprintf("%.6f", ap),
			fmt.Sprintf("%.6f", sp-base), fmt.Sprintf("%.6f", ap-base))
	}
	return []*metrics.Table{goodput, over,
		phaseTable("R11 phase breakdown across the sweep (virtual s)", phases)}
}

// expR12: throughput under a lossy, straggling interconnect compared
// across escalation policies — always-rollback (every wire fault is a
// rank failure), retransmit-only (reliable transport, no mitigation),
// and tiered (transport + straggler-draining expert migration).
//
// EP > 1 gives mitigation experts to drain; MoESimFLOPS charges
// expert compute per row a rank actually processes, which is the work
// a drained straggler stops doing (and ComputeFLOPS is off so expert
// compute is not double-priced). ClipNorm 0 keeps the loss trajectory
// bit-comparable across expert placements. Stragglers are pinned to
// the highest ranks so the schedule is independent of the
// drop-probability sweep.
func expR12(o *options) []*metrics.Table {
	m := o.machine
	ranks := m.ranks
	if ranks%4 != 0 || ranks < 8 {
		check(fmt.Errorf("R12: -ranks %d: need a multiple of 4, at least 8 (dp x ep4)", ranks))
	}
	cfg12 := func(esc train.Escalation) parallel.FTConfig {
		cfg := ftConfig(ranks, r12Steps, &train.FaultPolicy{
			Interval: 8, Async: true, DiskBWGiBs: ftDiskBW, MaxRecoveries: ranks, Escalation: esc,
		})
		cfg.Strategy = parallel.Strategy{DataParallel: ranks / 4, ExpertParallel: 4}
		cfg.Model.NumExperts = 8
		cfg.Model.MoESimFLOPS = ftFLOPS
		cfg.Train.ClipNorm = 0
		cfg.ComputeFLOPS = 0
		return cfg
	}
	var ev []fault.Event
	for i := 0; i < r12StragN; i++ {
		ev = append(ev, fault.Event{Kind: fault.EventStraggler, Rank: ranks - 1 - i, Mult: r12StragX})
	}
	ff := ftRun(m, cfg12(train.EscalateTiered), nil)
	r12 := metrics.NewTable(
		fmt.Sprintf("R12: throughput vs drop-prob x escalation policy (%d stragglers at x%g)", len(ev), float64(r12StragX)),
		"drop-prob", "policy", "completed", "rollbacks", "retransmits", "recovered", "mitigations",
		"steps", "total-sim-s", "steps-per-sim", "rel-throughput", "final-loss", "bitexact")
	phases := metrics.NewPhaseMeter(metrics.PhaseRetransmit, metrics.PhaseMitigation,
		metrics.PhaseRecovery, metrics.PhaseRecoveryRead, metrics.PhaseRecoveryGather)
	for _, dp := range []float64{0, r12Drop, r12Drop * 10} {
		for _, esc := range []train.Escalation{train.EscalateRollback, train.EscalateRetransmit, train.EscalateTiered} {
			inj := must(fault.Scripted(fault.Config{Seed: o.seed, Ranks: ranks, Steps: r12Steps, DropProb: dp}, ev))
			res := ftRun(m, cfg12(esc), inj)
			rel := 0.0
			if ff.StepsPerSim > 0 {
				rel = res.StepsPerSim / ff.StepsPerSim
			}
			r12.AddRow(fmt.Sprintf("%g", dp), esc.String(), res.Completed, res.Recoveries-res.RolledForward,
				res.Retransmits, res.RecoveredFrames, res.Mitigations, res.Steps,
				fmt.Sprintf("%.4f", res.TotalSim), fmt.Sprintf("%.3f", res.StepsPerSim),
				fmt.Sprintf("%.3f", rel), fmt.Sprintf("%.5f", res.FinalLoss), res.FinalLoss == ff.FinalLoss)
			phases.Observe(metrics.PhaseRetransmit, res.BackoffSim)
			phases.Observe(metrics.PhaseMitigation, res.MitigationSim)
			observeRecovery(phases, res.Timing)
		}
	}
	return []*metrics.Table{r12,
		phaseTable("R12 phase breakdown across the sweep (virtual s)", phases)}
}
