package parallel

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"bagualu/internal/ckpt"
	"bagualu/internal/fault"
	"bagualu/internal/mpi"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/train"
)

// ftModelCfg widens the tiny model's expert pool so the world can
// shrink 4 -> 3 -> 2 with the pool dividing evenly each time.
func ftModelCfg() ModelConfig {
	mc := tinyModelCfg(1)
	mc.NumExperts = 12
	return mc
}

func ftConfig(strat Strategy, steps int, pol *train.FaultPolicy) FTConfig {
	return FTConfig{
		Strategy: strat,
		Model:    ftModelCfg(),
		Corpus:   tinyCorpusCfg(),
		Train:    tinyTrainCfg(),
		Seed:     11,
		Steps:    steps,
		Policy:   pol,
		OptFor:   func() train.Optimizer { return train.NewAdam(0) },
	}
}

func TestShrinkStrategy(t *testing.T) {
	cases := []struct {
		old     Strategy
		size    int
		experts int
		moe     bool
		want    Strategy
		err     bool
	}{
		{Strategy{DataParallel: 2, ExpertParallel: 4}, 4, 24, true, Strategy{DataParallel: 1, ExpertParallel: 4}, false}, // EP preserved
		{Strategy{DataParallel: 1, ExpertParallel: 4}, 3, 12, true, Strategy{DataParallel: 1, ExpertParallel: 3}, false}, // degenerate to pure EP
		{Strategy{DataParallel: 1, ExpertParallel: 4}, 3, 8, true, Strategy{}, true},                                     // 8 % 3 != 0: unrecoverable
		{Strategy{DataParallel: 2, ExpertParallel: 2}, 3, 8, false, Strategy{DataParallel: 3, ExpertParallel: 1}, false}, // dense: any DP
		{Strategy{DataParallel: 1, ExpertParallel: 3}, 2, 12, true, Strategy{DataParallel: 1, ExpertParallel: 2}, false}, // second shrink
	}
	for i, c := range cases {
		got, err := ShrinkStrategy(c.old, c.size, c.experts, c.moe)
		if c.err != (err != nil) {
			t.Fatalf("case %d: err = %v, want err=%v", i, err, c.err)
		}
		if err == nil && got != c.want {
			t.Fatalf("case %d: got %+v, want %+v", i, got, c.want)
		}
	}
}

// The acceptance criterion for the whole subsystem: a rank crash
// mid-run is detected, the survivors restore onto the shrunk world, and
// the final loss is EXACTLY the loss of an uninterrupted run that starts
// from the same state on a same-size world.
func TestCrashRecoveryMatchesRestart(t *testing.T) {
	const steps = 10
	t.Run("dp1xep4", func(t *testing.T) {
		// Run A: 4 ranks, checkpoint every 4 steps, rank 2 dies entering
		// step 6 -> rollback to the step-4 checkpoint on 3 survivors.
		dir := t.TempDir()
		pol := &train.FaultPolicy{Dir: dir, Interval: 4, MaxRecoveries: 2}
		inj, err := fault.Scripted(fault.Config{Ranks: 4, Steps: steps},
			[]fault.Event{{Kind: fault.EventCrash, Rank: 2, Step: 6}})
		if err != nil {
			t.Fatal(err)
		}
		w := mpi.NewWorld(4, nil)
		res, err := RunFaultTolerant(w, ftConfig(Strategy{DataParallel: 1, ExpertParallel: 4}, steps, pol), inj)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed || res.Unrecoverable {
			t.Fatalf("run did not complete: %+v", res)
		}
		if res.Recoveries != 1 || res.Failures != 1 || res.FinalWorld != 3 || res.Steps != steps {
			t.Fatalf("recovery shape wrong: %+v", res)
		}

		// Run B: a fresh 3-rank world restores the SAME step-4 checkpoint
		// and trains to the same step count with no faults.
		wb := mpi.NewWorld(3, nil)
		var refLoss float32
		var bErr error
		wb.Run(func(c *mpi.Comm) {
			eng, err := NewEngine(c, Strategy{DataParallel: 1, ExpertParallel: 3}, ftModelCfg(),
				tinyCorpusCfg(), tinyTrainCfg(), train.NewAdam(0), 11)
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
			t.Fatalf("recovered run diverged: final loss %v, uninterrupted restart %v", res.FinalLoss, refLoss)
		}
	})

	// A dense dp4 world under tiered escalation: the survivors' first
	// collective after rank 2's boundary crash is the statistics request
	// the sync hook starts (the health round follows it), so the failure
	// surfaces inside a request. Every survivor still holds the step-6
	// state and rolls forward; the restart starts from that state.
	t.Run("dense_dp4_tiered", func(t *testing.T) {
		c := rfCase{"dense_dp4", Strategy{DataParallel: 4, ExpertParallel: 1}, Strategy{DataParallel: 3, ExpertParallel: 1}, []int{2}, 6, sunway.FP32, true}
		inj, err := fault.Scripted(fault.Config{Ranks: 4, Steps: steps}, []fault.Event{{Kind: fault.EventCrash, Rank: 2, Step: 6}})
		if err != nil {
			t.Fatal(err)
		}
		cfg := rfConfig(c, steps, t.TempDir())
		cfg.Policy.Escalation = train.EscalateTiered
		res, err := RunFaultTolerant(mpi.NewWorld(4, nil), cfg, inj)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed || res.Recoveries != 1 || res.RolledForward != 1 || res.FinalWorld != 3 || res.Steps != steps {
			t.Fatalf("expected one roll-forward onto 3 ranks: %+v", res)
		}
		if refLoss, _, _ := restartReference(t, c, steps); res.FinalLoss != refLoss {
			t.Fatalf("recovered run ends at loss %v, the restart at %v", res.FinalLoss, refLoss)
		}
	})

	// The same world, but rank 2 dies inside step 6 as it enters the sync
	// hook: its statistics request has completed, so the survivors' first
	// collective that needs it is a bucket sync deferred to the hook's
	// join, and the failure escapes Wait from inside that body. The step's
	// other deferred bodies are dropped — none runs when joined, none is
	// left pending to hold the port floor — and every survivor still rolls
	// forward from its step-6 state.
	t.Run("dense_dp4_deferred_sync", func(t *testing.T) {
		c := rfCase{"dense_dp4", Strategy{DataParallel: 4, ExpertParallel: 1}, Strategy{DataParallel: 3, ExpertParallel: 1}, []int{2}, 6, sunway.FP32, true}
		refLoss, _, _ := restartReference(t, c, steps)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			cfg := rfConfig(c, steps, t.TempDir())
			cfg.stepped = func(rank int, e *Engine, st StepStats) {
				if rank == 2 && st.Step == c.crash-1 {
					e.Trainer.PostBackward = func(train.Metrics) float32 {
						e.Comm.Abandon()
						panic(&mpi.RankFailedError{Rank: 2, Detector: 2})
					}
				}
			}
			var mu sync.Mutex
			var bad []string
			cfg.afterRecovery = func(e *Engine, _ bool) {
				t0 := e.Comm.Now()
				pending := e.Comm.Deferred()
				for _, r := range e.syncs {
					r.Wait()
				}
				if len(e.syncs) == 0 || pending != 0 || e.Comm.Now() != t0 {
					mu.Lock()
					bad = append(bad, fmt.Sprintf("rank %d: %d abandoned syncs, %d bodies pending, joining them moved the clock %v -> %v",
						e.Comm.Rank(), len(e.syncs), pending, t0, e.Comm.Now()))
					mu.Unlock()
				}
			}
			res, err := RunFaultTolerant(mpi.NewWorld(4, nil), cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range bad {
				t.Errorf("GOMAXPROCS %d: %s", procs, b)
			}
			if !res.Completed || res.Recoveries != 1 || res.RolledForward != 1 || res.FinalWorld != 3 || res.Steps != steps {
				t.Fatalf("GOMAXPROCS %d: expected one roll-forward onto 3 ranks: %+v", procs, res)
			}
			if res.FinalLoss != refLoss {
				t.Fatalf("GOMAXPROCS %d: recovered run ends at loss %v, the restart at %v", procs, res.FinalLoss, refLoss)
			}
		}
	})

	t.Run("dp3xep2_expert_sync_mid_backward", func(t *testing.T) { testCrashInExpertSync(t, steps) })
}

// issuedMidBackward reports whether e's i-th sync of the step is a group
// its MoE block's expert unit issued, from inside the block's backward.
func issuedMidBackward(e *Engine, i int) bool { return e.groups[i].at.Experts }

// testCrashInExpertSync is a subtest of TestCrashRecoveryMatchesRestart.
// On dp3×ep2, ranks 2 and 3 — a whole
// data-parallel row — die inside step 6 as they reach the first expert
// group their sync hook joins, after the head's and block 1's dense
// groups: the survivors first meet the crash inside that expert group's
// sync, which block 1's expert unit issued from inside the MoE layer's
// backward. They roll forward onto dp2×ep2 to the bits of a fresh
// restart from their step-6 state, at GOMAXPROCS 1 and 4, and the
// abandoned step leaves nothing behind: joining its syncs runs nothing
// and moves no clock, no deferred body is pending.
func testCrashInExpertSync(t *testing.T, steps int) {
	c := rfCase{"dp3xep2", Strategy{DataParallel: 3, ExpertParallel: 2}, Strategy{DataParallel: 2, ExpertParallel: 2}, []int{2, 3}, 6, sunway.FP32, false}
	refLoss, _, _ := restartReference(t, c, steps)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		cfg := rfConfig(c, steps, t.TempDir())
		var mu sync.Mutex
		var bad []string
		report := func(format string, args ...any) {
			mu.Lock()
			bad = append(bad, fmt.Sprintf(format, args...))
			mu.Unlock()
		}
		met := make([]bool, c.strat.Size())
		cfg.stepped = func(rank int, e *Engine, st StepStats) {
			if st.Step != c.crash-1 {
				return
			}
			hook := e.Trainer.PostBackward
			e.Trainer.PostBackward = func(m train.Metrics) float32 {
				for i, r := range e.syncs {
					early := issuedMidBackward(e, i)
					if early && slices.Contains(c.victims, rank) {
						e.Comm.Abandon()
						panic(&mpi.RankFailedError{Rank: rank, Detector: rank})
					}
					// A survivor joins one sync at a time, so a failure
					// escaping Wait says which sync met it.
					met[rank] = early
					r.Wait()
				}
				return hook(m)
			}
		}
		var survivors []int
		for r := range c.strat.Size() {
			if !slices.Contains(c.victims, r) {
				survivors = append(survivors, r)
			}
		}
		cfg.afterRecovery = func(e *Engine, _ bool) {
			t0 := e.Comm.Now()
			pending := e.Comm.Deferred()
			for _, r := range e.syncs {
				r.Wait()
			}
			old := survivors[e.Comm.Rank()]
			if len(e.syncs) == 0 || pending != 0 || e.Comm.Now() != t0 || !met[old] {
				report("rank %d: %d abandoned syncs, %d bodies pending, joining them moved the clock %v -> %v, crash met in an expert sync %v",
					old, len(e.syncs), pending, t0, e.Comm.Now(), met[old])
			}
		}
		res, err := RunFaultTolerant(mpi.NewWorld(c.strat.Size(), nil), cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bad {
			t.Errorf("GOMAXPROCS %d: %s", procs, b)
		}
		if !res.Completed || res.Recoveries != 1 || res.RolledForward != 1 || res.FinalWorld != c.shrunk.Size() || res.Steps != steps {
			t.Fatalf("GOMAXPROCS %d: expected one roll-forward onto %d ranks: %+v", procs, c.shrunk.Size(), res)
		}
		if res.FinalLoss != refLoss {
			t.Fatalf("GOMAXPROCS %d: recovered run ends at loss %v, the restart at %v", procs, res.FinalLoss, refLoss)
		}
	}
}

// Two crashes at different steps force two shrinks (4 -> 3 -> 2) with
// a strategy change each time; the run must still complete.
func TestRepeatedRecovery(t *testing.T) {
	dir := t.TempDir()
	pol := &train.FaultPolicy{Dir: dir, Interval: 2, MaxRecoveries: 3}
	inj, err := fault.Scripted(fault.Config{Ranks: 4, Steps: 10}, []fault.Event{
		{Kind: fault.EventCrash, Rank: 1, Step: 3},
		{Kind: fault.EventCrash, Rank: 3, Step: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(4, nil)
	res, err := RunFaultTolerant(w, ftConfig(Strategy{DataParallel: 1, ExpertParallel: 4}, 10, pol), inj)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Recoveries != 2 || res.FinalWorld != 2 {
		t.Fatalf("double recovery failed: %+v", res)
	}
	if res.Steps != 10 {
		t.Fatalf("steps = %d, want 10", res.Steps)
	}
}

// Without a checkpoint policy a failure ends the run as unrecoverable
// instead of hanging or corrupting state.
func TestUnrecoverableWithoutCheckpoints(t *testing.T) {
	inj, err := fault.Scripted(fault.Config{Ranks: 4, Steps: 10},
		[]fault.Event{{Kind: fault.EventCrash, Rank: 2, Step: 3}})
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(4, nil)
	res, err := RunFaultTolerant(w, ftConfig(Strategy{DataParallel: 1, ExpertParallel: 4}, 10, nil), inj)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || !res.Unrecoverable {
		t.Fatalf("expected unrecoverable exit: %+v", res)
	}
}

// On a priced topology with async checkpointing, the run reports a
// goodput in (0, 1] and a phase breakdown: recovery and flush time
// must show up after a crash.
func TestGoodputAccounting(t *testing.T) {
	dir := t.TempDir()
	pol := &train.FaultPolicy{Dir: dir, Interval: 3, Async: true, DiskBWGiBs: 0.5, MaxRecoveries: 2}
	inj, err := fault.Scripted(fault.Config{Ranks: 4, Steps: 12},
		[]fault.Event{{Kind: fault.EventCrash, Rank: 1, Step: 7}})
	if err != nil {
		t.Fatal(err)
	}
	topo := simnet.New(sunway.TestMachine(2, 2), 1)
	w := mpi.NewWorld(4, topo)
	cfg := ftConfig(Strategy{DataParallel: 1, ExpertParallel: 4}, 12, pol)
	cfg.ComputeFLOPS = 1e9
	res, err := RunFaultTolerant(w, cfg, inj)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run did not complete: %+v", res)
	}
	if res.Goodput <= 0 || res.Goodput > 1 {
		t.Fatalf("goodput %v outside (0, 1]", res.Goodput)
	}
	if res.UsefulSim <= 0 || res.UsefulSim > res.TotalSim {
		t.Fatalf("useful %v vs total %v", res.UsefulSim, res.TotalSim)
	}
	if res.Timing.Recovery <= 0 {
		t.Fatalf("no recovery time charged after a crash: %+v", res.Timing)
	}
	if res.Timing.Snapshot <= 0 {
		t.Fatalf("async checkpoints charged no snapshot time: %+v", res.Timing)
	}
}

// After a crash that must restore from disk — here ZeRO, whose moment
// shards are rank-exclusive — a survivor reads back only its own slice
// of the replicated state and the replica group all-gathers the rest.
// The meter splits recovery into its disk and interconnect parts, the
// disk part is the slice's, not the state's, and the whole detour —
// re-form, read, gather, wait for the slowest — costs less than reading
// the full state once did.
func TestRecoveryReadsSliceGathersRest(t *testing.T) {
	dir := t.TempDir()
	const diskGiBs = 0.5
	pol := &train.FaultPolicy{Dir: dir, Interval: 3, Async: true, DiskBWGiBs: diskGiBs, MaxRecoveries: 2}
	inj, err := fault.Scripted(fault.Config{Ranks: 4, Steps: 12},
		[]fault.Event{{Kind: fault.EventCrash, Rank: 1, Step: 7}})
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(4, simnet.New(sunway.TestMachine(2, 2), 1))
	cfg := ftConfig(Strategy{DataParallel: 4, ExpertParallel: 1}, 12, pol)
	cfg.ComputeFLOPS = 1e9
	cfg.OptFor = train.OptimizerFactory(true, 0)
	res, err := RunFaultTolerant(w, cfg, inj)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Recoveries != 1 || res.RolledForward != 0 || res.FinalWorld != 3 {
		t.Fatalf("expected one recovery from disk onto 3 ranks: %+v", res)
	}
	logical, biggest := logicalBytes(t, dir, 6)
	fullRead := float64(logical) / (diskGiBs * (1 << 30))
	tm := res.Timing
	t.Logf("recovery %.3g s = read %.3g + gather %.3g + re-form and wait; a full-state read is %.3g s", tm.Recovery, tm.RecoveryRead, tm.RecoveryGather, fullRead)
	if tm.RecoveryRead <= 0 || tm.RecoveryGather <= 0 {
		t.Fatalf("recovery meter has no read/gather split: %+v", tm)
	}
	if tm.RecoveryRead+tm.RecoveryGather > tm.Recovery {
		t.Fatalf("read %v + gather %v exceed the recovery they are part of (%v)", tm.RecoveryRead, tm.RecoveryGather, tm.Recovery)
	}
	// A third of the state each, plus whole records at the slice's ends.
	if limit := (1.05*float64(logical)/3 + boundarySlack(ckptLayout{zero: true}, biggest)) / (diskGiBs * (1 << 30)); tm.RecoveryRead > limit {
		t.Fatalf("survivor spent %v s reading; its slice is worth %v s", tm.RecoveryRead, limit)
	}
	if tm.Recovery >= fullRead {
		t.Fatalf("recovery took %v s, no less than one full-state read (%v s)", tm.Recovery, fullRead)
	}
}
