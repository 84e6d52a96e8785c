package parallel

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"bagualu/internal/ckpt"
	"bagualu/internal/fault"
	"bagualu/internal/mpi"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
	"bagualu/internal/train"
)

// rfCase is one roll-forward scenario: a world of strat loses victims at
// step crash and shrinks to shrunk.
type rfCase struct {
	name    string
	strat   Strategy
	shrunk  Strategy
	victims []int
	crash   int
	prec    sunway.Precision
	dense   bool // no MoE layers
}

// rfConfig is the fault-tolerant run of a roll-forward case: compute and
// expert FLOPs on the clock (experts price inline in the forward pass, so
// an interrupted step has cost time), synchronous checkpoints every 4
// steps. The runs use an unpriced network: survivors keep their nodes,
// so a fresh shrunk world would pay different link costs.
func rfConfig(c rfCase, steps int, dir string) FTConfig {
	cfg := ftConfig(c.strat, steps, &train.FaultPolicy{Dir: dir, Interval: 4, MaxRecoveries: 2})
	cfg.Train.Precision = c.prec
	if c.dense {
		cfg.Model.MoEEvery = 0
	}
	cfg.Model.MoESimFLOPS = 1e9
	cfg.ComputeFLOPS = 1e9
	return cfg
}

// rfResult is what one rank ends a run with.
type rfResult struct {
	weights [][]float32
	gnorm   float32
}

func snapshotRank(e *Engine) rfResult {
	r := rfResult{gnorm: e.lastGradNorm}
	for _, p := range e.Trainer.Params() {
		r.weights = append(r.weights, slices.Clone(p.W.Data))
	}
	return r
}

// restartReference is what a roll-forward must reproduce: the old world
// trains fault-free to the crash step (taking the same checkpoints as the
// crashed run, so its clocks match) and saves its state there; a fresh
// shrunk world restores that state with survivor i resuming its own data
// stream — the header of the shard it wrote — and trains to the end. It
// returns rank 0's final loss, every rank's final state, and rank 0's
// summed step time (the useful time of the whole trajectory).
func restartReference(t *testing.T, c rfCase, steps int) (float32, []rfResult, float64) {
	t.Helper()
	cfg := rfConfig(c, steps, t.TempDir())
	refDir := t.TempDir()
	var useful float64
	mpi.NewWorld(c.strat.Size(), nil).Run(func(cm *mpi.Comm) {
		e, err := NewEngine(cm, c.strat, cfg.Model, cfg.Corpus, cfg.Train, cfg.OptFor(), cfg.Seed)
		if err != nil {
			t.Error(err)
			panic(err)
		}
		e.SetComputeRate(cfg.ComputeFLOPS)
		lay := ckpt.Layout{WorldSize: cm.Size(), DataParallel: c.strat.DataParallel, ExpertParallel: c.strat.ExpertParallel}
		wr := ckpt.NewWriter(ckpt.Config{Dir: cfg.Policy.Dir}, cm)
		for e.Trainer.StepCount() < c.crash {
			if s := e.Trainer.StepCount(); s%cfg.Policy.Interval == 0 {
				if err := wr.Save(int64(s), e.Trainer.CheckpointHeader(), e.CheckpointShard(), lay); err != nil {
					t.Error(err)
					panic(err)
				}
			}
			if st := e.Step(); cm.Rank() == 0 {
				useful += st.SimTime
			}
		}
		full := ckpt.NewWriter(ckpt.Config{Dir: refDir}, cm)
		if err := full.Save(int64(c.crash), e.Trainer.CheckpointHeader(), e.Trainer.CheckpointParams(), lay); err != nil {
			t.Error(err)
			panic(err)
		}
		full.WaitIdle()
	})
	var survivors []int
	for r := 0; r < c.strat.Size(); r++ {
		if !slices.Contains(c.victims, r) {
			survivors = append(survivors, r)
		}
	}
	var loss float32
	out := make([]rfResult, c.shrunk.Size())
	mpi.NewWorld(c.shrunk.Size(), nil).Run(func(cm *mpi.Comm) {
		e, err := NewEngine(cm, c.shrunk, cfg.Model, cfg.Corpus, cfg.Train, cfg.OptFor(), cfg.Seed)
		if err != nil {
			t.Error(err)
			panic(err)
		}
		e.SetComputeRate(cfg.ComputeFLOPS)
		rr, err := ckpt.Restore(refDir, int64(c.crash), survivors[cm.Rank()], e.Trainer.CheckpointParams())
		if err != nil {
			t.Error(err)
			panic(err)
		}
		e.Trainer.ApplyRestored(rr.Header)
		for e.Trainer.StepCount() < steps {
			if st := e.Step(); cm.Rank() == 0 {
				loss, useful = st.Loss, useful+st.SimTime
			}
		}
		out[cm.Rank()] = snapshotRank(e)
	})
	return loss, out, useful
}

// TestRollForwardMatchesRestart is the roll-forward's acceptance gate: a
// crash at step k that every survivor rolls forward from memory must
// leave the run bitwise where a fault-free run checkpointed at step k and
// restored into the shrunk world (each survivor continuing its own data
// stream) leaves it — final loss, gradient norm and every weight on every
// rank — and must credit exactly the completed steps as useful time: the
// steps before the crash are kept, the interrupted one never counts.
func TestRollForwardMatchesRestart(t *testing.T) {
	const steps = 10
	for _, c := range []rfCase{
		{"dp4", Strategy{DataParallel: 4, ExpertParallel: 1}, Strategy{DataParallel: 3, ExpertParallel: 1}, []int{2}, 6, sunway.FP32, false},
		{"dp4_mixed", Strategy{DataParallel: 4, ExpertParallel: 1}, Strategy{DataParallel: 3, ExpertParallel: 1}, []int{1}, 5, sunway.Mixed, false},
		{"dp3xep2", Strategy{DataParallel: 3, ExpertParallel: 2}, Strategy{DataParallel: 2, ExpertParallel: 2}, []int{2, 3}, 6, sunway.FP32, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var ev []fault.Event
			for _, v := range c.victims {
				ev = append(ev, fault.Event{Kind: fault.EventCrash, Rank: v, Step: c.crash})
			}
			inj, err := fault.Scripted(fault.Config{Ranks: c.strat.Size(), Steps: steps}, ev)
			if err != nil {
				t.Fatal(err)
			}
			cfg := rfConfig(c, steps, t.TempDir())
			engines := make([]*Engine, c.shrunk.Size())
			cfg.afterRecovery = func(e *Engine, _ bool) { engines[e.Comm.Rank()] = e }
			res, err := RunFaultTolerant(mpi.NewWorld(c.strat.Size(), nil), cfg, inj)
			if err != nil {
				t.Fatal(err)
			}
			// Two victims of one step may cost two attempts: a survivor can
			// list the survivors before the second has abandoned, and the
			// first attempt then fails at the recovery barrier, before it
			// touches any state. Exactly one attempt succeeds.
			if !res.Completed || res.RolledForward != 1 || res.Steps != steps || res.FinalWorld != c.shrunk.Size() {
				t.Fatalf("expected one roll-forward onto %d ranks: %+v", c.shrunk.Size(), res)
			}
			if res.Timing.RecoveryRead != 0 || res.Timing.RecoveryGather != 0 {
				t.Fatalf("a roll-forward read or gathered state: %+v", res.Timing)
			}

			loss, ref, useful := restartReference(t, c, steps)
			if res.FinalLoss != loss {
				t.Fatalf("rolled-forward run ends at loss %v, the restart at %v", res.FinalLoss, loss)
			}
			for r, e := range engines {
				got := snapshotRank(e)
				if got.gnorm != ref[r].gnorm {
					t.Fatalf("rank %d: final grad norm %v, restart %v", r, got.gnorm, ref[r].gnorm)
				}
				for k, w := range got.weights {
					for i := range w {
						if math.Float32bits(w[i]) != math.Float32bits(ref[r].weights[k][i]) {
							t.Fatalf("rank %d: %s[%d] = %v, restart %v", r, e.Trainer.Params()[k].Name, i, w[i], ref[r].weights[k][i])
						}
					}
				}
			}
			if math.Abs(res.UsefulSim-useful) > 1e-9*res.TotalSim {
				t.Fatalf("useful time %.12g s, the completed steps took %.12g s", res.UsefulSim, useful)
			}
		})
	}
}

// TestRecoveryVote pins the decision rule on a three-rank world: roll
// forward only when every survivor can and all stand at the same step;
// the rollback step is the least committed one.
func TestRecoveryVote(t *testing.T) {
	type in struct {
		latest int64
		steps  int
		live   bool
	}
	for _, c := range []struct {
		name    string
		ranks   [3]in
		agreed  int64
		forward bool
	}{
		{"all live", [3]in{{4, 6, true}, {4, 6, true}, {4, 6, true}}, 4, true},
		{"one lacks its state", [3]in{{4, 6, true}, {4, 6, false}, {4, 6, true}}, 4, false},
		{"one applied the update", [3]in{{4, 6, true}, {4, 7, true}, {4, 6, true}}, 4, false},
		{"late commit", [3]in{{8, 9, true}, {4, 9, true}, {8, 9, true}}, 4, true},
		{"no checkpoint", [3]in{{-1, 2, true}, {-1, 2, true}, {-1, 2, true}}, -1, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			mpi.NewWorld(3, nil).Run(func(cm *mpi.Comm) {
				v := c.ranks[cm.Rank()]
				agreed, forward := recoveryVote(cm, v.latest, v.steps, v.live)
				if agreed != c.agreed || forward != c.forward {
					t.Errorf("rank %d: vote (%d, %v), want (%d, %v)", cm.Rank(), agreed, forward, c.agreed, c.forward)
				}
			})
		})
	}
}

// shrinkShape is one base layout of the generated recovery test.
type shrinkShape struct {
	name  string
	strat Strategy
	zero  bool
	dense bool // no MoE layers
}

// expectLive is the decision rule's oracle, from layout arithmetic
// alone: a survivor keeps its state iff the pipeline depth and its stage
// are unchanged and its new block of experts lies inside its old one;
// ZeRO never rolls forward.
func expectLive(sh shrinkShape, survivors []int, shrunk Strategy, experts int) bool {
	if sh.zero || shrunk.PP() != sh.strat.PP() {
		return false
	}
	old, cur := sh.strat, shrunk
	oldStage, curStage := old.DataParallel*old.ExpertParallel, cur.DataParallel*cur.ExpertParallel
	for i, o := range survivors {
		if o/oldStage != i/curStage {
			return false
		}
		if sh.dense {
			continue
		}
		oldPer, curPer := experts/old.ExpertParallel, experts/cur.ExpertParallel
		oldSlot, curSlot := (o%oldStage)%old.ExpertParallel, (i%curStage)%cur.ExpertParallel
		if curSlot*curPer < oldSlot*oldPer || (curSlot+1)*curPer > (oldSlot+1)*oldPer {
			return false
		}
	}
	return true
}

// TestRecoveryPathGenerated draws a crash schedule for each shrink shape
// — flat, dp×ep, pipeline-preserving, pipeline-collapsing, ZeRO — and
// checks after every recovery that all survivors took the path the
// decision rule predicts (live or disk) and that the ranks of each
// pipeline column hold one data-stream position. ZeRO, dp = 1 experts
// and re-chunked pipelines must restore from disk.
func TestRecoveryPathGenerated(t *testing.T) {
	shapes := []shrinkShape{
		{"flat_dp4", Strategy{DataParallel: 4, ExpertParallel: 1}, false, false},
		{"flat_dense_dp4", Strategy{DataParallel: 4, ExpertParallel: 1}, false, true},
		{"dp2xep2", Strategy{DataParallel: 2, ExpertParallel: 2}, false, false},
		{"dp1xep4", Strategy{DataParallel: 1, ExpertParallel: 4}, false, false},
		{"pp2xdp2", Strategy{DataParallel: 2, ExpertParallel: 1, Pipeline: 2}, false, false},
		{"pp2xdp4", Strategy{DataParallel: 4, ExpertParallel: 1, Pipeline: 2}, false, false},
		{"pp4xdp2", Strategy{DataParallel: 2, ExpertParallel: 1, Pipeline: 4}, false, false},
		{"zero_dp4", Strategy{DataParallel: 4, ExpertParallel: 1}, true, false},
	}
	const steps = 6
	rng := tensor.NewRNG(27)
	live, disk, pipelined := 0, 0, 0
	for _, sh := range shapes {
		n := sh.strat.Size()
		// One or two victims, rank 0 spared, crashing together.
		victims := []int{1 + rng.Intn(n-1)}
		if rng.Intn(2) == 0 {
			if v := 1 + rng.Intn(n-1); v != victims[0] {
				victims = append(victims, v)
			}
		}
		crash := 2 + rng.Intn(3)
		var survivors []int
		for r := 0; r < n; r++ {
			if !slices.Contains(victims, r) {
				survivors = append(survivors, r)
			}
		}
		mc := ftModelCfg()
		mc.GPT.Layers = max(2, sh.strat.PP())
		if sh.dense {
			mc.MoEEvery = 0
		}
		shrunk, err := ShrinkStrategy(sh.strat, len(survivors), mc.NumExperts, !sh.dense)
		if err != nil {
			continue
		}
		want := expectLive(sh, survivors, shrunk, mc.NumExperts)
		t.Run(fmt.Sprintf("%s_victims%v_step%d", sh.name, victims, crash), func(t *testing.T) {
			var ev []fault.Event
			for _, v := range victims {
				ev = append(ev, fault.Event{Kind: fault.EventCrash, Rank: v, Step: crash})
			}
			inj, err := fault.Scripted(fault.Config{Ranks: n, Steps: steps}, ev)
			if err != nil {
				t.Fatal(err)
			}
			cfg := ftConfig(sh.strat, steps, &train.FaultPolicy{Dir: t.TempDir(), Interval: 2, MaxRecoveries: 3})
			cfg.Model = mc
			cfg.Train.Accum = sh.strat.PP()
			if sh.strat.PP() > 1 {
				cfg.Train.ClipNorm = 0
			}
			cfg.OptFor = train.OptimizerFactory(sh.zero, 0)
			var mu sync.Mutex
			paths := map[bool]int{}
			columns := map[int][]uint64{} // stage-0 global rank -> the column's stream positions
			cfg.afterRecovery = func(e *Engine, forward bool) {
				mu.Lock()
				defer mu.Unlock()
				paths[forward]++
				key := e.PPComm.Global(0)
				columns[key] = append(columns[key], e.Trainer.Corpus.RNGState())
			}
			res, err := RunFaultTolerant(mpi.NewWorld(n, nil), cfg, inj)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Fatalf("run did not complete: %+v", res)
			}
			// One successful recovery per survivor (see
			// TestRollForwardMatchesRestart on attempts).
			if len(paths) != 1 || paths[want] != len(survivors) {
				t.Fatalf("survivors took paths %v (true = live), want all %v", paths, want)
			}
			if got := res.RolledForward == 1; got != want {
				t.Fatalf("RolledForward %d, rule says live=%v", res.RolledForward, want)
			}
			for key, pos := range columns {
				if slices.Min(pos) != slices.Max(pos) {
					t.Fatalf("pipeline column of rank %d holds data-stream positions %v", key, pos)
				}
			}
		})
		if want {
			live++
		} else {
			disk++
		}
		if shrunk.PP() > 1 && shrunk.DataParallel > 1 {
			pipelined++
		}
	}
	if live == 0 || disk == 0 || pipelined == 0 {
		t.Fatalf("the draw covered %d live, %d disk and %d pipelined dp > 1 recoveries; it must cover all three", live, disk, pipelined)
	}
}

// A drained placement is not the block placement Reform rebuilds, so a
// crash during a mitigation drain restores from disk. Here nothing else
// would force it: the straggler's EP slot is drained onto the other
// slot, then both ranks of the drained slot crash, so every survivor
// still holds every expert its new block assigns it.
func TestDrainedCrashRestoresFromDisk(t *testing.T) {
	const steps = 12
	inj, err := fault.Scripted(fault.Config{Ranks: 4, Steps: steps, Seed: 3}, []fault.Event{
		{Kind: fault.EventStraggler, Rank: 3, Mult: 4},
		{Kind: fault.EventCrash, Rank: 1, Step: 9},
		{Kind: fault.EventCrash, Rank: 3, Step: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	pol := &train.FaultPolicy{Dir: t.TempDir(), Interval: 4, MaxRecoveries: 3, Escalation: train.EscalateTiered}
	res, err := RunFaultTolerant(mpi.NewWorld(4, degradeTopo()), degradeCfg(Strategy{DataParallel: 2, ExpertParallel: 2}, steps, pol), inj)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Mitigations < 1 {
		t.Fatalf("expected a drain, then a recovery: %+v", res)
	}
	if res.RolledForward != 0 {
		t.Fatalf("a crash under an active drain rolled forward: %+v", res)
	}
}
