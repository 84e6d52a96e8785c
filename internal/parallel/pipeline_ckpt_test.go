package parallel

import (
	"fmt"
	"testing"

	"bagualu/internal/ckpt"
	"bagualu/internal/fault"
	"bagualu/internal/mpi"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/train"
)

// runPipelineSegment runs one segment of training under strat:
// optionally restore from (restoreDir, restoreStep) first, train until
// the global step counter reaches untilStep, and optionally commit a
// sharded checkpoint of the final state to saveDir. Under PP each rank
// saves only its stage chunk's tensors (CheckpointParams follows the
// restricted parameter set), so a PP save IS the stage-sharded layout
// the restore matrix exercises.
func runPipelineSegment(t *testing.T, strat Strategy, mc ModelConfig, tc train.Config,
	optFor func() train.Optimizer, restoreDir string, restoreStep int64,
	untilStep int, saveDir string) pipeRun {
	t.Helper()
	topo := simnet.New(sunway.TestMachine(2, 4), 1)
	w := mpi.NewWorld(strat.Size(), topo)
	var run pipeRun
	perRank := make([]map[string][]float32, strat.Size())
	w.Run(func(c *mpi.Comm) {
		e, err := NewEngine(c, strat, mc, tinyCorpusCfg(), tc, optFor(), 11)
		if err != nil {
			t.Error(err)
			panic(err)
		}
		if restoreDir != "" {
			rr, rerr := ckpt.Restore(restoreDir, restoreStep, c.Rank(), e.Trainer.CheckpointParams())
			if rerr != nil {
				t.Error(rerr)
				panic(rerr)
			}
			e.Trainer.ApplyRestored(rr.Header)
		}
		for e.Trainer.StepCount() < untilStep {
			st := e.Step()
			if c.Rank() == 0 {
				run.stats = append(run.stats, st)
			}
		}
		if saveDir != "" {
			wr := ckpt.NewWriter(ckpt.Config{Dir: saveDir}, c)
			lay := ckpt.Layout{
				WorldSize:      c.Size(),
				DataParallel:   strat.DataParallel,
				ExpertParallel: strat.ExpertParallel,
				Pipeline:       strat.Pipeline,
				Virtual:        strat.Virtual,
			}
			if serr := wr.Save(int64(untilStep), e.Trainer.CheckpointHeader(), e.Trainer.CheckpointParams(), lay); serr != nil {
				t.Error(serr)
				panic(serr)
			}
			if werr := wr.WaitIdle(); werr != nil {
				t.Error(werr)
				panic(werr)
			}
		}
		snap := map[string][]float32{}
		for _, p := range e.Trainer.Params() {
			snap[p.Name] = append([]float32(nil), p.W.Data...)
		}
		perRank[c.Rank()] = snap
	})
	run.weights = map[string][]float32{}
	for _, snap := range perRank {
		for name, w := range snap {
			run.weights[name] = w
		}
	}
	return run
}

// TestPipelineCrossLayoutRestore is the PP row of the restore matrix:
// a checkpoint written under the flat dp x ep grid restores into the
// folded pp x dp x ep grid (weights AND Adam moments, proven by the
// continued trajectory staying bit-exact against the same-layout
// continuation), and a stage-sharded PP checkpoint restores back onto
// the flat grid. Both directions ride the name+range matching of
// ckpt.Restore — no layout-specific reshuffling code exists anywhere.
func TestPipelineCrossLayoutRestore(t *testing.T) {
	mc := pipeModelCfg(4)
	tc := pipeTrainCfg(2) // M = S = 2 micro-batches
	adam := func() train.Optimizer { return train.NewAdam(0) }
	flat := Strategy{DataParallel: 1, ExpertParallel: 2}
	folded := Strategy{DataParallel: 1, ExpertParallel: 2, Pipeline: 2}

	// Segment 1: train flat for 3 steps, commit a dp x ep checkpoint.
	dirFlat := t.TempDir()
	runPipelineSegment(t, flat, mc, tc, adam, "", 0, 3, dirFlat)

	// dp x ep -> pp x dp x ep: the folded continuation must follow the
	// flat continuation exactly. The folded run re-saves at step 5,
	// producing the stage-sharded checkpoint for the reverse direction.
	dirPP := t.TempDir()
	contFlat := runPipelineSegment(t, flat, mc, tc, adam, dirFlat, 3, 5, "")
	contPP := runPipelineSegment(t, folded, mc, tc, adam, dirFlat, 3, 5, dirPP)
	comparePipeRuns(t, contFlat, contPP)

	// The stage-sharded manifest must record the pipeline layout.
	man, err := ckpt.ReadManifest(dirPP, 5)
	if err != nil {
		t.Fatal(err)
	}
	if man.Layout.Pipeline != 2 || man.Shards != folded.Size() {
		t.Fatalf("PP manifest layout = %+v shards=%d, want Pipeline=2 shards=%d", man.Layout, man.Shards, folded.Size())
	}

	// pp x dp x ep -> dp x ep: every flat rank needs the full model and
	// full Adam moments; the union of stage shards must cover them.
	backFlat := runPipelineSegment(t, flat, mc, tc, adam, dirPP, 5, 6, "")
	backPP := runPipelineSegment(t, folded, mc, tc, adam, dirPP, 5, 6, "")
	comparePipeRuns(t, backPP, backFlat)
}

// TestPipelineZeROCrossLayoutRestore repeats both matrix directions
// under the ZeRO-sharded optimizer: moment ranges are scattered as
// range records across the dense group's shards (the whole world flat,
// each stage's sub-grid folded), and restore must re-cover each rank's
// re-partitioned view from whatever shard files hold the bytes.
func TestPipelineZeROCrossLayoutRestore(t *testing.T) {
	mc := pipeModelCfg(4)
	tc := pipeTrainCfg(2)
	zero := func() train.Optimizer { return train.NewShardedAdam(0) }
	flat := Strategy{DataParallel: 1, ExpertParallel: 2}
	folded := Strategy{DataParallel: 1, ExpertParallel: 2, Pipeline: 2}

	dirFlat := t.TempDir()
	runPipelineSegment(t, flat, mc, tc, zero, "", 0, 3, dirFlat)

	dirPP := t.TempDir()
	contFlat := runPipelineSegment(t, flat, mc, tc, zero, dirFlat, 3, 5, "")
	contPP := runPipelineSegment(t, folded, mc, tc, zero, dirFlat, 3, 5, dirPP)
	comparePipeRuns(t, contFlat, contPP)

	backFlat := runPipelineSegment(t, flat, mc, tc, zero, dirPP, 5, 6, "")
	backPP := runPipelineSegment(t, folded, mc, tc, zero, dirPP, 5, 6, "")
	comparePipeRuns(t, backPP, backFlat)
}

// TestPipelineCrashShrinkRestore closes the fault-tolerance loop for
// pipelined grids: a 2-stage x dp=2 run crashes a rank mid-flight, the
// 3 survivors cannot sustain 2 stages (3 % 2 != 0), so ShrinkStrategy
// collapses the pipeline to a flat dp=3 grid and the stage-sharded
// step-4 checkpoint restores into it — fewer stages than it was
// written under. The recovered trajectory must exactly equal a fresh
// 3-rank flat run restarted from the same checkpoint, at FP32 and under
// Mixed, where the FP32 masters and the loss-scale state cross the
// shrink too.
func TestPipelineCrashShrinkRestore(t *testing.T) {
	for _, prec := range []sunway.Precision{sunway.FP32, sunway.Mixed} {
		t.Run(fmt.Sprint(prec), func(t *testing.T) { pipelineCrashShrinkRestore(t, prec) })
	}
}

func pipelineCrashShrinkRestore(t *testing.T, prec sunway.Precision) {
	dir := t.TempDir()
	const steps = 10
	mc := ftModelCfg()
	mc.GPT.Layers = 4
	tc := tinyTrainCfg()
	tc.ClipNorm = 0
	tc.Accum = 2 // M = S micro-batches while the pipeline is alive
	tc.Precision = prec

	pol := &train.FaultPolicy{Dir: dir, Interval: 4, MaxRecoveries: 2}
	inj, err := fault.Scripted(fault.Config{Ranks: 4, Steps: steps},
		[]fault.Event{{Kind: fault.EventCrash, Rank: 2, Step: 6}})
	if err != nil {
		t.Fatal(err)
	}
	cfg := FTConfig{
		Strategy: Strategy{DataParallel: 2, ExpertParallel: 1, Pipeline: 2},
		Model:    mc,
		Corpus:   tinyCorpusCfg(),
		Train:    tc,
		Seed:     11,
		Steps:    steps,
		Policy:   pol,
		OptFor:   func() train.Optimizer { return train.NewAdam(0) },
	}
	w := mpi.NewWorld(4, nil)
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

	// The rollback checkpoint was written by the 2-stage world.
	man, err := ckpt.ReadManifest(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if man.Layout.Pipeline != 2 || man.Shards != 4 {
		t.Fatalf("crash checkpoint layout = %+v shards=%d, want Pipeline=2 shards=4", man.Layout, man.Shards)
	}

	// Reference: a fresh flat 3-rank world restores the SAME
	// stage-sharded checkpoint and trains to the same step count.
	wb := mpi.NewWorld(3, nil)
	var refLoss float32
	var bErr error
	wb.Run(func(c *mpi.Comm) {
		eng, err := NewEngine(c, Strategy{DataParallel: 3, ExpertParallel: 1}, mc,
			tinyCorpusCfg(), tc, train.NewAdam(0), 11)
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
}

// TestPipelineShrinkKeepsStagesWhenDivisible pins the other branch of
// the PP-aware ShrinkStrategy: when the survivor count still divides by
// the stage count, the pipeline depth is preserved and only the
// per-stage grid shrinks.
func TestPipelineShrinkKeepsStagesWhenDivisible(t *testing.T) {
	got, err := ShrinkStrategy(Strategy{DataParallel: 2, ExpertParallel: 2, Pipeline: 2}, 4, 12, true)
	if err != nil {
		t.Fatal(err)
	}
	want := Strategy{DataParallel: 1, ExpertParallel: 2, Pipeline: 2}
	if got != want {
		t.Fatalf("shrink 8->4 under pp=2: got %+v, want %+v", got, want)
	}
	// Depth halves when the full depth no longer divides: 4 stages over
	// 6 survivors -> 2 stages of 3 ranks, EP degenerating to the expert
	// pool divisor, virtual factor riding along.
	got, err = ShrinkStrategy(Strategy{DataParallel: 1, ExpertParallel: 2, Pipeline: 4, Virtual: 2}, 6, 12, true)
	if err != nil {
		t.Fatal(err)
	}
	want = Strategy{DataParallel: 1, ExpertParallel: 3, Pipeline: 2, Virtual: 2}
	if got != want {
		t.Fatalf("shrink 8->6 under pp=4: got %+v, want %+v", got, want)
	}
}
