package parallel

import (
	"math"
	"testing"

	"bagualu/internal/ckpt"
	"bagualu/internal/fault"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/train"
)

// runEngineOpt runs steps on a fresh world with a per-rank optimizer
// factory and returns rank-0's per-step stats.
func runEngineOpt(t *testing.T, strat Strategy, mc ModelConfig, tc train.Config,
	steps int, optFor func() train.Optimizer) []StepStats {
	t.Helper()
	return runEngineOn(t, simnet.New(sunway.TestMachine(2, 2), 1), strat, mc, tc, steps, optFor)
}

// runEngineOn is runEngineOpt on the given topology.
func runEngineOn(t *testing.T, topo *simnet.Topology, strat Strategy, mc ModelConfig, tc train.Config,
	steps int, optFor func() train.Optimizer) []StepStats {
	t.Helper()
	w := mpi.NewWorld(strat.Size(), topo)
	stats := make([]StepStats, steps)
	w.Run(func(c *mpi.Comm) {
		e, err := NewEngine(c, strat, mc, tinyCorpusCfg(), tc, optFor(), 11)
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

// The tentpole acceptance test: the ZeRO-sharded optimizer must follow
// the EXACT trajectory of the unsharded Adam — same losses to the last
// bit, every step — across grid shapes, route modes, and precision.
// The sharded reduce-scatter produces bitwise the all-reduce values on
// each owned range and both modes share the canonical norm combine, so
// any inequality here is a real divergence, not float noise. Under
// Mixed both sync at 16 bits (mpi.GradWire): dp4-mixed is a four-rank
// ring with float32 middle hops, dp2xep4-mixed W2's rail schedule over
// four supernodes, and the owner's one rounding must agree.
func TestZeROBitExactVsUnsharded(t *testing.T) {
	cases := []struct {
		name  string
		strat Strategy
		route moe.RouteMode
		prec  sunway.Precision
		topo  *simnet.Topology // nil: two supernodes of two one-rank nodes
	}{
		{"dp4", Strategy{DataParallel: 4, ExpertParallel: 1}, moe.TokenChoice, sunway.FP32, nil},
		{"dp2xep2", Strategy{DataParallel: 2, ExpertParallel: 2}, moe.TokenChoice, sunway.FP32, nil},
		{"dp2xep2-capdrop", Strategy{DataParallel: 2, ExpertParallel: 2}, moe.CapacityDrop, sunway.FP32, nil},
		{"dp2xep2-mixed", Strategy{DataParallel: 2, ExpertParallel: 2}, moe.TokenChoice, sunway.Mixed, nil},
		{"dp4-mixed", Strategy{DataParallel: 4, ExpertParallel: 1}, moe.TokenChoice, sunway.Mixed,
			simnet.New(sunway.TestMachine(1, 4), 1)},
		{"dp2xep4-mixed", Strategy{DataParallel: 2, ExpertParallel: 4}, moe.TokenChoice, sunway.Mixed,
			simnet.New(sunway.TestMachine(4, 1), 2)},
	}
	const steps = 6
	for _, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			mc := tinyModelCfg(1)
			mc.RouteMode = cse.route
			tc := tinyTrainCfg()
			tc.Precision = cse.prec
			topo := cse.topo
			if topo == nil {
				topo = simnet.New(sunway.TestMachine(2, 2), 1)
			}
			ref := runEngineOn(t, topo, cse.strat, mc, tc, steps,
				func() train.Optimizer { return train.NewAdam(0) })
			got := runEngineOn(t, topo, cse.strat, mc, tc, steps,
				func() train.Optimizer { return train.NewShardedAdam(0) })
			for s := 0; s < steps; s++ {
				if ref[s].Loss != got[s].Loss {
					t.Fatalf("step %d: sharded loss %v != unsharded %v", s, got[s].Loss, ref[s].Loss)
				}
				if ref[s].GradNorm != got[s].GradNorm {
					t.Fatalf("step %d: sharded grad norm %v != unsharded %v", s, got[s].GradNorm, ref[s].GradNorm)
				}
			}
		})
	}
}

// Two identical ZeRO runs must replay bit-identically (run the whole
// test binary under -count=2 for the cross-process version; verify.sh
// does).
func TestZeRODeterministicReplay(t *testing.T) {
	mc := tinyModelCfg(1)
	tc := tinyTrainCfg()
	strat := Strategy{DataParallel: 2, ExpertParallel: 2}
	a := runEngineOpt(t, strat, mc, tc, 5, func() train.Optimizer { return train.NewShardedAdam(0) })
	b := runEngineOpt(t, strat, mc, tc, 5, func() train.Optimizer { return train.NewShardedAdam(0) })
	for s := range a {
		if a[s].Loss != b[s].Loss || a[s].GradNorm != b[s].GradNorm {
			t.Fatalf("step %d: replay diverged (%v,%v) vs (%v,%v)",
				s, a[s].Loss, a[s].GradNorm, b[s].Loss, b[s].GradNorm)
		}
	}
}

// Per-step gradient-sync traffic under ZeRO must not exceed the
// full-tensor all-reduce baseline: reduce-scatter + all-gather moves
// the same bytes a ring all-reduce does. Run on a single-supernode
// topology where the ring path's byte parity is exact; the only ZeRO
// extra is the 8-byte-per-rank norm-partial exchange.
func TestZeROSyncBytesNoWorse(t *testing.T) {
	traffic := func(optFor func() train.Optimizer) int64 {
		mc := tinyModelCfg(0) // dense-only: all traffic is gradient sync + scalar aggs
		strat := Strategy{DataParallel: 4, ExpertParallel: 1}
		topo := simnet.New(sunway.TestMachine(1, 4), 1)
		w := mpi.NewWorld(4, topo)
		w.Run(func(c *mpi.Comm) {
			e, err := NewEngine(c, strat, mc, tinyCorpusCfg(), tinyTrainCfg(), optFor(), 11)
			if err != nil {
				panic(err)
			}
			for s := 0; s < 3; s++ {
				e.Step()
			}
		})
		return w.Stats().Snapshot().TotalBytes()
	}
	legacy := traffic(func() train.Optimizer { return train.NewAdam(0) })
	zero := traffic(func() train.Optimizer { return train.NewShardedAdam(0) })
	if float64(zero) > float64(legacy)*1.01 {
		t.Fatalf("ZeRO traffic %d exceeds all-reduce baseline %d", zero, legacy)
	}
}

// Selective recomputation (every n-th block) must not change the
// trajectory, and must report the recomputed fraction so the virtual
// clock can price the replay.
func TestSelectiveRecomputeMatchesPlain(t *testing.T) {
	run := func(every int) []StepStats {
		mc := tinyModelCfg(1)
		mc.RecomputeEvery = every
		return runEngineOpt(t, Strategy{DataParallel: 2, ExpertParallel: 2}, mc, tinyTrainCfg(), 5,
			func() train.Optimizer { return train.NewShardedAdam(0) })
	}
	plain := run(0)
	sel := run(2)
	for s := range plain {
		if math.Abs(float64(plain[s].Loss-sel[s].Loss)) > 1e-5 {
			t.Fatalf("step %d: selective recompute changed trajectory: %v vs %v", s, plain[s].Loss, sel[s].Loss)
		}
	}
}

// The step report must attribute virtual time to the memory-capacity
// phases: grad-sync and param-gather from the sharded collectives,
// optimizer-shard and recompute when a compute rate prices them, and
// offload when the host-memory tier is enabled.
func TestZeROPhaseStatsPopulated(t *testing.T) {
	topo := simnet.New(sunway.TestMachine(2, 2), 1)
	w := mpi.NewWorld(4, topo)
	var st StepStats
	w.Run(func(c *mpi.Comm) {
		mc := tinyModelCfg(1)
		mc.RecomputeEvery = 2
		e, err := NewEngine(c, Strategy{DataParallel: 2, ExpertParallel: 2}, mc,
			tinyCorpusCfg(), tinyTrainCfg(), train.NewShardedAdam(0), 11)
		if err != nil {
			panic(err)
		}
		e.SetComputeRate(1e12)
		e.EnableOffload(12.8)
		s := e.Step()
		if c.Rank() == 0 {
			st = s
		}
		if e.OptStateBytes() <= 0 {
			t.Error("no resident optimizer state reported")
		}
	})
	if st.GradSync <= 0 {
		t.Fatalf("grad-sync phase empty: %+v", st)
	}
	if st.ParamGather <= 0 {
		t.Fatalf("param-gather phase empty: %+v", st)
	}
	if st.OptimizerShard <= 0 {
		t.Fatalf("optimizer-shard phase empty: %+v", st)
	}
	if st.RecomputeSim <= 0 {
		t.Fatalf("recompute phase empty: %+v", st)
	}
	if st.OffloadSim <= 0 {
		t.Fatalf("offload phase empty: %+v", st)
	}
}

// ZeRO shards a rank's optimizer state by the group size: a 4-rank
// dense group should hold roughly a quarter of the unsharded moments.
func TestZeROStateBytesShrink(t *testing.T) {
	bytesFor := func(optFor func() train.Optimizer) int64 {
		var b int64
		w := mpi.NewWorld(4, nil)
		w.Run(func(c *mpi.Comm) {
			e, err := NewEngine(c, Strategy{DataParallel: 4, ExpertParallel: 1}, tinyModelCfg(0),
				tinyCorpusCfg(), tinyTrainCfg(), optFor(), 11)
			if err != nil {
				panic(err)
			}
			e.Step() // unsharded Adam lazily allocates moments on first step
			if c.Rank() == 0 {
				b = e.OptStateBytes()
			}
		})
		return b
	}
	full := bytesFor(func() train.Optimizer { return train.NewAdam(0) })
	shard := bytesFor(func() train.Optimizer { return train.NewShardedAdam(0) })
	if shard*3 > full {
		t.Fatalf("sharded state %d not ~1/4 of unsharded %d", shard, full)
	}
}

// Expert migration cannot move moment ranges that are scattered across
// the data-parallel group, so both migration entry points must refuse
// under ZeRO instead of silently corrupting state.
func TestZeRORejectsExpertMigration(t *testing.T) {
	w := mpi.NewWorld(4, nil)
	w.Run(func(c *mpi.Comm) {
		e, err := NewEngine(c, Strategy{DataParallel: 2, ExpertParallel: 2}, tinyModelCfg(1),
			tinyCorpusCfg(), tinyTrainCfg(), train.NewShardedAdam(0), 11)
		if err != nil {
			panic(err)
		}
		e.Step()
		if _, err := e.RebalanceExperts(); err == nil {
			t.Error("RebalanceExperts accepted under ZeRO")
		}
		if err := e.Mitigate([]bool{true, false}); err == nil {
			t.Error("Mitigate accepted under ZeRO")
		}
	})
}

// Crash recovery under ZeRO: the sharded checkpoint (range records)
// written by the 4-rank layout must restore bit-exactly onto the
// 3-survivor layout — the re-partitioned moment shards are filled by
// coverage — and the recovered run must land on EXACTLY the loss of an
// uninterrupted restart from the same checkpoint.
func TestZeROCrashRecoveryBitExact(t *testing.T) {
	dir := t.TempDir()
	const steps = 10
	zOpt := func() train.Optimizer { return train.NewShardedAdam(0) }

	pol := &train.FaultPolicy{Dir: dir, Interval: 4, MaxRecoveries: 2}
	inj, err := fault.Scripted(fault.Config{Ranks: 4, Steps: steps},
		[]fault.Event{{Kind: fault.EventCrash, Rank: 2, Step: 6}})
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(4, nil)
	cfg := ftConfig(Strategy{DataParallel: 1, ExpertParallel: 4}, steps, pol)
	cfg.OptFor = zOpt
	res, err := RunFaultTolerant(w, cfg, inj)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Unrecoverable {
		t.Fatalf("run did not complete: %+v", res)
	}
	if res.Recoveries != 1 || res.FinalWorld != 3 || res.Steps != steps {
		t.Fatalf("recovery shape wrong: %+v", res)
	}

	wb := mpi.NewWorld(3, nil)
	var refLoss float32
	var bErr error
	wb.Run(func(c *mpi.Comm) {
		eng, err := NewEngine(c, Strategy{DataParallel: 1, ExpertParallel: 3}, ftModelCfg(),
			tinyCorpusCfg(), tinyTrainCfg(), zOpt(), 11)
		if err != nil {
			bErr = err
			return
		}
		rr, err := ckpt.Restore(dir, 4, c.Rank(), eng.Trainer.CheckpointParams())
		if err != nil {
			bErr = err
			return
		}
		eng.Trainer.ApplyRestored(rr.Header)
		for eng.Trainer.StepCount() < steps {
			st := eng.Step()
			if c.Rank() == 0 {
				refLoss = st.Loss
			}
		}
	})
	if bErr != nil {
		t.Fatal(bErr)
	}
	if res.FinalLoss != refLoss {
		t.Fatalf("recovered ZeRO run diverged: final loss %v, uninterrupted restart %v", res.FinalLoss, refLoss)
	}
}

// benchEngineStep measures one hybrid-parallel training step's host
// wall time over a 4-rank world (engine construction is amortized
// over b.N; virtual-clock phase costs are reported by `bagualu exp R16`).
func benchEngineStep(b *testing.B, optFor func() train.Optimizer) {
	strat := Strategy{DataParallel: 4, ExpertParallel: 1}
	topo := simnet.New(sunway.TestMachine(2, 2), 1)
	w := mpi.NewWorld(strat.Size(), topo)
	b.ReportAllocs()
	w.Run(func(c *mpi.Comm) {
		e, err := NewEngine(c, strat, tinyModelCfg(1), tinyCorpusCfg(), tinyTrainCfg(), optFor(), 11)
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			e.Step()
		}
	})
}

func BenchmarkStepReplicatedAdamDP4(b *testing.B) {
	benchEngineStep(b, func() train.Optimizer { return train.NewAdam(0) })
}

func BenchmarkStepZeROAdamDP4(b *testing.B) {
	benchEngineStep(b, func() train.Optimizer { return train.NewShardedAdam(0) })
}
