// Fault-tolerant training loop: the layer that closes the loop between
// the fault injector (internal/fault), the failure-detecting runtime
// (internal/mpi), and sharded checkpointing (internal/ckpt).
//
// Every rank runs the same state machine:
//
//	step boundary -> scheduled crash? Abandon and exit
//	             -> checkpoint due? write this rank's shard
//	             -> Protect(engine.Step())
//	failure      -> convert wire faults to fail-stop of the sender
//	             -> survivors agree on the rollback step, shrink the
//	                communicator, re-form the engine over the survivors,
//	                restore from the last committed checkpoint, resume
//
// The recovery never restarts the process: the surviving ranks keep
// their goroutines and rebuild in place, which is what "automatic
// in-run recovery" means at BaGuaLu scale, where a full relaunch of
// 96,000 nodes costs more than the failure did.
package parallel

import (
	"fmt"
	"math"
	"slices"

	"bagualu/internal/ckpt"
	"bagualu/internal/data"
	"bagualu/internal/fault"
	"bagualu/internal/health"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/parallel/pipe"
	"bagualu/internal/train"
)

// FTConfig parameterizes one fault-tolerant run.
type FTConfig struct {
	Strategy Strategy
	Model    ModelConfig
	Corpus   data.CorpusConfig
	Train    train.Config
	Seed     uint64
	Steps    int

	// Policy drives checkpointing and recovery; nil or disabled means
	// any failure ends the run (Unrecoverable).
	Policy *train.FaultPolicy

	// OptFor builds a fresh optimizer. Called once per rank at engine
	// construction and again on every recovery: optimizer state is
	// restored from the checkpoint, not migrated, so the instance must
	// start empty.
	OptFor func() train.Optimizer

	// ComputeFLOPS, when positive, charges each step's analytic FLOPs
	// to the virtual clock at this per-rank rate, so goodput reflects
	// compute as well as communication and checkpoint overhead.
	ComputeFLOPS float64
}

// FTResult summarizes a fault-tolerant run, reported from the lowest-
// ranked survivor.
type FTResult struct {
	Completed     bool // reached Steps
	Unrecoverable bool // a failure could not be recovered from
	Steps         int  // global step counter at exit
	Recoveries    int  // in-run recoveries performed
	Failures      int  // ranks lost over the run
	FinalWorld    int  // surviving world size
	FinalLoss     float32
	Checkpoints   int // checkpoints this rank contributed a shard to

	// UsefulSim is virtual time spent on steps that were never rolled
	// back; TotalSim is the slowest rank's clock at exit. Goodput is
	// their ratio — the quantity R11 sweeps against checkpoint
	// interval and MTBF.
	UsefulSim float64
	TotalSim  float64
	Goodput   float64

	// Timing is the reporting rank's cumulative checkpoint/recovery
	// phase breakdown on the virtual clock.
	Timing ckpt.Timing

	// Graceful-degradation summary (zero under EscalateRollback).
	// Retransmits/RecoveredFrames/ExhaustedFrames/BackoffSim aggregate
	// the reliable transport's work across the whole world;
	// Mitigations and MitigationSim count the reporting rank's expert
	// drain migrations; DegradedRanks is the health monitor's degraded
	// set at exit (reporting rank's view, global rank ids).
	Retransmits     int64
	RecoveredFrames int64
	ExhaustedFrames int64
	BackoffSim      float64
	Mitigations     int
	MitigationSim   float64
	DegradedRanks   []int

	// StepsPerSim is completed-step throughput on the virtual clock
	// (Steps / TotalSim) — the quantity R12 normalizes against a
	// fault-free baseline to compare escalation policies, since
	// Goodput alone cannot distinguish a slow-but-never-rolled-back
	// run from a fast one.
	StepsPerSim float64
}

// ShrinkStrategy maps a process grid onto a smaller world after
// failures. The expert-parallel width is preserved when the survivor
// count allows it (experts stay put relative to their EP group);
// otherwise the grid degenerates to pure expert parallelism if the
// expert pool divides evenly, and anything else is unrecoverable
// without spare ranks.
//
// With a pipelined grid the pipeline depth shrinks first: the deepest
// divisor of the old depth that divides the survivor count is kept
// (fewer, larger stages — checkpoint restore re-scatters the layer
// chunks by name), and the per-stage remainder maps through the flat
// rules above. The virtual-stage factor rides along unchanged; at
// depth 1 it drops away with the pipeline.
func ShrinkStrategy(old Strategy, newSize, numExperts int, hasMoE bool) (Strategy, error) {
	if newSize < 1 {
		return Strategy{}, fmt.Errorf("parallel: no survivors")
	}
	for pp := old.PP(); pp >= 1; pp-- {
		if old.PP()%pp != 0 || newSize%pp != 0 {
			continue
		}
		perStage := newSize / pp
		var s Strategy
		switch {
		case !hasMoE:
			s = Strategy{DataParallel: perStage, ExpertParallel: 1}
		case perStage%old.ExpertParallel == 0:
			s = Strategy{DataParallel: perStage / old.ExpertParallel, ExpertParallel: old.ExpertParallel}
		case numExperts%perStage == 0:
			s = Strategy{DataParallel: 1, ExpertParallel: perStage}
		default:
			continue
		}
		if pp > 1 {
			s.Pipeline = pp
			s.Virtual = old.Virtual
		}
		return s, nil
	}
	return Strategy{}, fmt.Errorf("parallel: cannot map EP=%d/%d experts (pp=%d) onto %d survivors",
		old.ExpertParallel, numExperts, old.PP(), newSize)
}

// Reform rebinds the engine to a shrunk communicator and a new process
// grid without moving weights: MoE layers reshard in place (checkpoint
// restore repopulates them), the corpus shard is rebuilt under the NEW
// rank index so a reformed run is step-identical to a fresh run on a
// same-size world, and the optimizer is replaced by an empty one whose
// state the restore fills. Callers restore from a checkpoint
// immediately after; until then the model's expert weights are
// meaningless.
func (e *Engine) Reform(newComm *mpi.Comm, strat Strategy, opt train.Optimizer) error {
	if err := strat.Validate(); err != nil {
		return err
	}
	if strat.Size() != newComm.Size() {
		return fmt.Errorf("parallel: reform strategy needs %d ranks, communicator has %d", strat.Size(), newComm.Size())
	}
	if len(e.moeLayers) > 0 && e.moeLayers[0].Cfg.NumExperts%strat.ExpertParallel != 0 {
		return fmt.Errorf("parallel: %d experts not divisible by EP=%d", e.moeLayers[0].Cfg.NumExperts, strat.ExpertParallel)
	}
	if strat.VPP() > 1 && e.micro%strat.PP() != 0 {
		return fmt.Errorf("parallel: interleaved schedule needs %d micro-batches divisible by Pipeline=%d", e.micro, strat.PP())
	}
	if err := e.splitGrid(newComm, strat); err != nil {
		return err
	}
	// Re-chunk the layers for the new pipeline depth (possibly 1 —
	// restore-into-fewer-stages lands here after a shrink). Ownership
	// and the schedule runner follow the new partition; checkpoint
	// restore re-scatters weights and moments by name afterwards.
	e.part, e.runner, e.chunkFwdFlops = nil, nil, nil
	if strat.PP() > 1 {
		part, perr := pipe.PartitionLayers(len(e.Model.Blocks), strat.PP()*strat.VPP())
		if perr != nil {
			return perr
		}
		e.part = part
	}
	for _, m := range e.moeLayers {
		place := moe.NewBlockPlacement(m.Cfg.NumExperts, e.EP.Size())
		if err := m.ReshardTo(e.EP, place); err != nil {
			return err
		}
	}
	// Re-partition parameters under the new shards and chunk ownership.
	e.repartitionParams()
	cc := e.corpusCfg
	cc.Seed = e.corpusCfg.Seed + uint64(e.decorrIndex())*1_000_003
	corpus, err := data.NewSynthetic(cc)
	if err != nil {
		return err
	}
	e.Trainer.Corpus = corpus
	e.Trainer.Opt = opt
	if strat.PP() > 1 {
		e.Trainer.RefreshParams()
		e.Trainer.RestrictParams(e.ownedParams())
		e.buildRunner()
	} else {
		e.Trainer.RefreshParams()
	}
	// Re-bind the sync path: under ZeRO the fresh optimizer's moment
	// shards re-partition over the NEW communicators, and the
	// checkpoint restore fills them through range-record coverage.
	e.installSync(opt)
	return nil
}

// rankState is one rank's exit report.
type rankState struct {
	err           error
	crashed       bool
	completed     bool
	unrecoverable bool
	recoveries    int
	checkpoints   int
	finalLoss     float32
	steps         int
	useful        float64
	timing        ckpt.Timing
	mitigations   int
	mitigationSim float64
	degraded      []int
}

// RunFaultTolerant trains cfg.Steps steps on w, surviving the
// injector's schedule within the policy's recovery budget. inj may be
// nil (failure-free run under the same loop, for baselines).
func RunFaultTolerant(w *mpi.World, cfg FTConfig, inj *fault.Injector) (*FTResult, error) {
	if cfg.OptFor == nil {
		return nil, fmt.Errorf("parallel: FTConfig.OptFor is required")
	}
	if cfg.Strategy.Size() != w.Size() {
		return nil, fmt.Errorf("parallel: strategy needs %d ranks, world has %d", cfg.Strategy.Size(), w.Size())
	}
	if inj != nil {
		inj.Arm(w)
	}
	// Tier 1: any escalation policy above always-rollback arms the
	// reliable transport, so transient wire faults are absorbed by
	// retransmission instead of triggering a recovery cycle.
	if pol := cfg.Policy; pol != nil && pol.Escalation != train.EscalateRollback {
		w.EnableReliableTransport(mpi.TransportConfig{})
	}
	states := make([]rankState, w.Size())
	w.Run(func(c *mpi.Comm) {
		runRankFT(w, c, cfg, inj, &states[c.Rank()])
	})

	res := &FTResult{TotalSim: w.MaxTime(), Failures: len(w.Failed())}
	report := -1
	for r := range states {
		if states[r].err != nil {
			return nil, fmt.Errorf("rank %d: %w", r, states[r].err)
		}
		if report < 0 && !states[r].crashed {
			report = r
		}
	}
	if report < 0 {
		res.Unrecoverable = true
		return res, nil
	}
	st := &states[report]
	res.Completed = st.completed
	res.Unrecoverable = st.unrecoverable
	res.Steps = st.steps
	res.Recoveries = st.recoveries
	res.Checkpoints = st.checkpoints
	res.FinalLoss = st.finalLoss
	res.FinalWorld = w.Size() - res.Failures
	res.UsefulSim = st.useful
	res.Timing = st.timing
	res.Mitigations = st.mitigations
	res.MitigationSim = st.mitigationSim
	res.DegradedRanks = st.degraded
	if ts := w.Transport(); ts != nil {
		res.Retransmits = ts.Retransmits()
		res.RecoveredFrames = ts.Recovered()
		res.ExhaustedFrames = ts.Exhausted()
		res.BackoffSim = ts.BackoffSim()
	}
	if res.TotalSim > 0 {
		res.Goodput = res.UsefulSim / res.TotalSim
		res.StepsPerSim = float64(res.Steps) / res.TotalSim
	}
	return res, nil
}

// runRankFT is one rank's fault-tolerant loop.
func runRankFT(w *mpi.World, c *mpi.Comm, cfg FTConfig, inj *fault.Injector, st *rankState) {
	my := c.Rank() // world comm: rank == global rank
	// Engine construction communicates (splits, initial broadcasts), so
	// with faults armed and no reliable transport a wire fault can
	// strike before the first step. There is no checkpoint to roll back
	// to and no engine to rebuild, so a rank hit during bootstrap
	// fail-stops: it marks the faulting sender AND itself failed before
	// exiting. The self-mark is load-bearing — peers may be blocked in
	// sub-communicator collectives whose groups contain this rank but
	// not the original casualty, and only a failed member unblocks
	// their receives. Survivors that reach the step loop then find no
	// committed checkpoint and report the run unrecoverable.
	var eng *Engine
	cerr := mpi.Protect(func() {
		var err error
		eng, err = NewEngine(c, cfg.Strategy, cfg.Model, cfg.Corpus, cfg.Train, cfg.OptFor(), cfg.Seed)
		if err != nil {
			st.err = err
		}
	})
	if st.err != nil {
		return
	}
	if cerr != nil {
		if pf, ok := cerr.(*mpi.PayloadFaultError); ok {
			w.MarkFailed(pf.Src)
		}
		c.Abandon()
		st.crashed = true
		return
	}
	if cfg.ComputeFLOPS > 0 {
		eng.SetComputeRate(cfg.ComputeFLOPS)
	}
	pol := cfg.Policy
	var wr *ckpt.Writer
	if pol.Enabled() {
		wr = ckpt.NewWriter(ckpt.Config{Dir: pol.Dir, DiskBWGiBs: pol.DiskBWGiBs, Async: pol.Async}, c)
	}
	maxRec := 1
	if pol != nil && pol.MaxRecoveries > 0 {
		maxRec = pol.MaxRecoveries
	}
	comm := c
	strat := cfg.Strategy
	lastCkpt := int64(-1)
	var pending, lastCredit float64 // sim-time not yet durable; credit of the last checkpoint

	// Tier 2 state: each rank runs an identical replica of the health
	// monitor (CollectScores hands every rank the same scores, so the
	// replicas never diverge and mitigation needs no extra agreement
	// round). handled remembers which degraded slot-sets were already
	// drained; both reset after a recovery, which rebuilds placement.
	var mon *health.Monitor
	if pol != nil && pol.Escalation != train.EscalateRollback && w.Size() > 1 {
		mon = health.NewMonitor(w.Size(), health.Config{})
	}
	mitigate := pol != nil && pol.Escalation == train.EscalateTiered
	handled := map[string]bool{}

	finish := func() {
		st.useful += pending // work after the last checkpoint still ran to completion
		if wr != nil {
			if werr := wr.WaitIdle(); werr != nil && st.err == nil {
				st.err = werr
			}
			st.timing = st.timing.Add(wr.Timing())
		}
		st.steps = eng.Trainer.StepCount()
		st.completed = st.err == nil
		if mon != nil {
			st.degraded = mon.Degraded()
		}
	}

	for eng.Trainer.StepCount() < cfg.Steps {
		step := eng.Trainer.StepCount()
		if inj != nil && inj.CrashesAt(my, step) {
			// Fail-stop at the step boundary. Checkpoint I/O already
			// handed to the store completes first: shards stream to
			// burst-buffer/IO nodes that survive a compute-node death,
			// so an issued flush is durably ordered before any peer can
			// observe the failure. This keeps the set of committed
			// checkpoints deterministic for a given schedule.
			if wr != nil {
				wr.WaitIdle()
			}
			comm.Abandon()
			st.crashed = true
			st.steps = step
			return
		}
		var stats StepStats
		perr := mpi.Protect(func() {
			// The step-0 save is the bootstrap checkpoint: it guarantees
			// every later failure has a committed state to roll back to.
			// Saves are suspended while a mitigation drain is active
			// (len(handled) > 0): shard layouts under a drained placement
			// do not match the block placement Reform rebuilds, so a
			// post-mitigation crash must roll back to the last checkpoint
			// written under block placement and replay from there.
			if wr != nil && step%pol.Interval == 0 && int64(step) != lastCkpt && len(handled) == 0 {
				hdr := eng.Trainer.CheckpointHeader()
				lay := ckpt.Layout{
					WorldSize:      comm.Size(),
					DataParallel:   strat.DataParallel,
					ExpertParallel: strat.ExpertParallel,
					Pipeline:       strat.Pipeline,
					Virtual:        strat.Virtual,
				}
				if serr := wr.Save(int64(step), hdr, eng.CheckpointShard(), lay); serr != nil {
					st.err = serr
					return
				}
				lastCkpt = int64(step)
				st.checkpoints++
				// Credit the sim-time behind this checkpoint as useful.
				// If the checkpoint later aborts (async flush racing a
				// crash), the rollback path takes the credit back.
				st.useful += pending
				lastCredit, pending = pending, 0
			}
			stats = eng.Step()
			// Tier 2: fold this step's link telemetry into the health
			// monitor. CollectScores is a collective, so it doubles as
			// the agreement round — every rank sees the same scores and
			// the monitor replicas evolve in lockstep.
			if mon != nil && comm.Size() > 1 {
				mon.Observe(collectHealth(w, comm))
				deg := mon.Degraded()
				if mitigate && len(deg) > 0 {
					// Degraded world ranks map to expert-parallel slots;
					// every EP group drains the same slots so placement
					// stays DP-symmetric.
					slots := make([]bool, strat.ExpertParallel)
					flagged := 0
					for _, g := range deg {
						for q := 0; q < comm.Size(); q++ {
							if comm.Global(q) == g {
								if s := q % strat.ExpertParallel; !slots[s] {
									slots[s] = true
									flagged++
								}
							}
						}
					}
					if flagged > 0 && flagged < strat.ExpertParallel {
						sig := fmt.Sprint(slots)
						if !handled[sig] {
							handled[sig] = true
							m0 := comm.Now()
							if merr := eng.Mitigate(slots); merr != nil {
								st.err = merr
								return
							}
							st.mitigations++
							st.mitigationSim += comm.Now() - m0
						}
					}
				}
			}
		})
		if st.err != nil {
			finish()
			return
		}
		if perr == nil {
			pending += stats.SimTime
			st.finalLoss = stats.Loss
			continue
		}

		// ---- failure path ----
		if pf, ok := perr.(*mpi.PayloadFaultError); ok {
			// With the reliable transport armed, transient wire faults
			// never reach this point — retransmission absorbs them inside
			// the step. A PayloadFaultError here means either the
			// transport is off (always-rollback policy) or its retries
			// were exhausted (pf.Exhausted): the link is persistently
			// bad, and the sender is treated as fail-stop — a link that
			// lies, or never answers, cannot be reasoned with.
			w.MarkFailed(pf.Src)
		}
		if !w.Alive(my) {
			// Peers declared this rank failed (it sent a faulted
			// payload); it must exit like a crashed rank.
			st.crashed = true
			st.steps = eng.Trainer.StepCount()
			return
		}
		pending = 0
		for {
			if wr == nil || st.recoveries >= maxRec {
				st.unrecoverable = true
				finish()
				st.completed = false
				return
			}
			st.recoveries++
			// recoverRank communicates throughout (shrink agreement,
			// re-form splits, restore); Protect the whole round so a
			// further fault mid-recovery surfaces as a typed error and
			// feeds the retry below instead of killing the goroutine.
			var rerr error
			if perr := mpi.Protect(func() {
				rerr = recoverRank(w, eng, cfg, &comm, &strat, &wr, &lastCkpt, &lastCredit, st)
			}); perr != nil {
				rerr = perr
			}
			if rerr == nil {
				// Tier 2 state restarts from scratch: Reform rebuilt the
				// placement, and EWMAs over the pre-shrink world are
				// meaningless for the survivors.
				if mon != nil {
					if comm.Size() > 1 {
						mon = health.NewMonitor(w.Size(), health.Config{})
					} else {
						mon = nil
					}
					handled = map[string]bool{}
				}
				break
			}
			switch re := rerr.(type) {
			case *mpi.PayloadFaultError:
				w.MarkFailed(re.Src) // same verdict as in-step wire faults
				if !w.Alive(my) {
					st.crashed = true
					return
				}
				continue // survivor set shrank mid-recovery; go again
			case *mpi.RankFailedError, *mpi.RevokedError:
				if !w.Alive(my) {
					st.crashed = true
					return
				}
				continue // another rank died during recovery; go again
			default:
				if st.unrecoverable {
					// A verdict, not a malfunction: no committed
					// checkpoint, or no viable grid over the survivors.
					finish()
					st.completed = false
					return
				}
				st.err = rerr
				finish()
				st.completed = false
				return
			}
		}
	}
	finish()
}

// recoverRank runs one recovery round for a survivor: abandon
// half-open checkpoints, agree on the rollback step, shrink the
// communicator, re-form the engine, restore, and meter the whole
// detour on the virtual clock. comm/strat/wr/lastCkpt are updated in
// place on success. Communication failures (another rank dying
// mid-recovery) return typed mpi errors for the caller to retry on.
func recoverRank(w *mpi.World, eng *Engine, cfg FTConfig, comm **mpi.Comm, strat *Strategy,
	wr **ckpt.Writer, lastCkpt *int64, lastCredit *float64, st *rankState) error {
	pol := cfg.Policy
	// Drain this rank's own background flushes so every shard it issued
	// is on disk (possibly committing a checkpoint) before the rollback
	// point is chosen. Deliberately NOT ckpt.AbandonPending: another
	// survivor's flush may be about to complete a commit this rank
	// would then wrongly abort. A checkpoint the dead rank never
	// contributed to simply never commits — its stale coordinator is
	// replaced when the shrunk world re-saves that step.
	(*wr).WaitIdle()

	keep := (*comm).Survivors()
	newComm := (*comm).ShrinkTo(keep)
	newStrat, serr := ShrinkStrategy(*strat, newComm.Size(), cfg.Model.NumExperts, cfg.Model.MoEEvery > 0)
	if serr != nil {
		st.unrecoverable = true
		return serr
	}

	// No survivor scans for the rollback point until every survivor has
	// drained: otherwise whether a checkpoint whose last shard is another
	// survivor's counts as committed depends on whose flush goroutine the
	// host ran first, and the run rolls back one interval further on some
	// executions than on others.
	newComm.Barrier()
	latest, lerr := ckpt.Latest(pol.Dir)
	if lerr != nil {
		return lerr
	}
	// Survivors can still disagree on Latest when a rank that peers
	// declared failed (it exits without draining) commits a manifest
	// late; the min over the shrunk communicator is committed
	// everywhere.
	var agreed int64
	if aerr := mpi.Protect(func() {
		red := newComm.AllReduce([]float32{-float32(latest)}, mpi.OpMax)
		agreed = -int64(red[0])
	}); aerr != nil {
		return aerr
	}
	if agreed < 0 {
		st.unrecoverable = true
		return fmt.Errorf("parallel: failure before any committed checkpoint")
	}
	if agreed != *lastCkpt {
		// The last checkpoint this rank credited never committed
		// world-wide; its sim-time was lost in the rollback after all.
		st.useful -= *lastCredit
	}
	*lastCredit = 0

	nw := ckpt.NewWriter(ckpt.Config{Dir: pol.Dir, DiskBWGiBs: pol.DiskBWGiBs, Async: pol.Async}, newComm)
	recoverStart := newComm.Now()
	if rerr := eng.Reform(newComm, newStrat, cfg.OptFor()); rerr != nil {
		return rerr
	}
	rs, rerr := eng.Restore(pol.Dir, agreed, nw.RestoreSeconds)
	if rerr != nil {
		return rerr
	}
	// Survivors leave recovery together: nobody resumes before the slowest
	// one's finish time (exact integer nanoseconds, as serve.Run agrees on
	// its idle jump). The skew a gather tree leaves between leaders and
	// members is then recovery's, not the first useful step's; what is
	// left is the exchange's own propagation, a few small-message hops.
	done := newComm.AllGatherInts([]int{int(math.Ceil(newComm.Now() * 1e9))})
	newComm.AdvanceTo(float64(slices.Max(done)) * 1e-9)
	// The clock paid for the detour as it went (re-form, disk, gather,
	// wait); the meter only records it.
	st.timing = st.timing.Add(ckpt.Timing{
		Recovery:       newComm.Now() - recoverStart,
		RecoveryRead:   rs.ReadSim,
		RecoveryGather: rs.GatherSim,
	}).Add((*wr).Timing()) // and retires the old writer's meter
	*comm, *strat, *wr, *lastCkpt = newComm, newStrat, nw, agreed
	return nil
}
