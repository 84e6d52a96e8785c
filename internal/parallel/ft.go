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
	"bagualu/internal/metrics"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/parallel/schedule"
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

	// OptFor builds the optimizer, once per rank at engine construction.
	// A recovery keeps that instance: a roll-forward continues its state
	// as it is (Adam moments are keyed by *nn.Param, which Reform keeps),
	// and a restore from disk overwrites all of it (ZeRO moment shards
	// re-partition over the shrunk groups first).
	OptFor func() train.Optimizer

	// ComputeFLOPS, when positive, charges each step's analytic FLOPs
	// to the virtual clock at this per-rank rate, so goodput reflects
	// compute as well as communication and checkpoint overhead.
	ComputeFLOPS float64

	// afterRecovery, when set, runs on every survivor after each
	// successful recovery, with whether it rolled forward (tests).
	afterRecovery func(e *Engine, rolledForward bool)

	// observed, when set, sees each set of health scores a rank's monitor
	// folds in, with its step and the degraded set after it (tests).
	observed func(rank, step int, scores []float64, degraded []int)

	// stepped, when set, sees every step a rank completes, with its
	// engine and the step's stats (tests).
	stepped func(rank int, e *Engine, st StepStats)
}

// FTResult summarizes a fault-tolerant run, reported from the lowest-
// ranked survivor.
type FTResult struct {
	Completed     bool // reached Steps
	Unrecoverable bool // a failure could not be recovered from
	Steps         int  // global step counter at exit
	Recoveries    int  // in-run recoveries performed
	RolledForward int  // of those, recoveries that kept the live state (no rollback)
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
	// phase breakdown on the virtual clock, read from its phase record.
	Timing ckpt.Timing

	// Graceful-degradation summary (zero under EscalateRollback).
	// Retransmits/RecoveredFrames/ExhaustedFrames/BackoffSim aggregate
	// the reliable transport's work across the whole world (BackoffSim
	// sums every rank's metrics.PhaseRetransmit in global-rank order);
	// Mitigations and MitigationSim count the reporting rank's expert
	// drain migrations (MitigationSim is its metrics.PhaseMitigation);
	// DegradedRanks is the health monitor's degraded set at exit
	// (reporting rank's view, global rank ids).
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
// grid without moving weights: MoE layers reshard in place, keeping
// every expert the rank still hosts and creating the ones it gains, and
// the live optimizer, FP32 masters and corpus are kept — Adam moments
// by *nn.Param identity. Callers call Restore immediately after: it
// either keeps that live state (every survivor still holds it) or
// overwrites all of it from a checkpoint; until then a gained expert or
// layer is meaningless.
func (e *Engine) Reform(newComm *mpi.Comm, strat Strategy) error {
	experts := 0
	if len(e.moeLayers) > 0 {
		experts = e.moeLayers[0].Cfg.NumExperts
	}
	if err := strat.Check(newComm.Size(), experts, e.Trainer.Runner.Micro); err != nil {
		return err
	}
	// Re-chunk the layers for the new pipeline depth (possibly 1 —
	// restore-into-fewer-stages lands here after a shrink). Ownership
	// and the schedule runner follow the new partition; checkpoint
	// restore re-scatters weights and moments by name afterwards.
	part, err := schedule.PartitionLayers(len(e.Model.Blocks), strat.PP()*strat.VPP())
	if err != nil {
		return err
	}
	e.splitGrid(newComm, strat)
	e.part = part
	for _, m := range e.moeLayers {
		place := moe.NewBlockPlacement(m.Cfg.NumExperts, e.EP.Size())
		if err := m.ReshardTo(e.EP, place); err != nil {
			return err
		}
	}
	// Re-partition parameters under the new shards and chunk ownership.
	e.repartitionParams()
	e.buildRunner()
	// Re-bind the sync path: under ZeRO the moment shards re-partition
	// (zeroed) over the NEW communicators, and the checkpoint restore
	// fills them through range-record coverage.
	e.installSync(e.Trainer.Opt)
	return nil
}

// rankState is one rank's exit report: its view of the run's result
// (the world-level fields are filled in by RunFaultTolerant), and
// whether it failed or crashed.
type rankState struct {
	FTResult
	err     error
	crashed bool
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
		return &FTResult{Unrecoverable: true, TotalSim: w.MaxTime(), Failures: len(w.Failed())}, nil
	}
	res := &states[report].FTResult
	res.TotalSim, res.Failures = w.MaxTime(), len(w.Failed())
	res.FinalWorld = w.Size() - res.Failures
	rec := w.Phases(report)
	res.Timing = ckpt.TimingOf(rec)
	res.MitigationSim = rec.Seconds(metrics.PhaseMitigation)
	if ts := w.Transport(); ts != nil {
		res.Retransmits = ts.Retransmits()
		res.RecoveredFrames = ts.Recovered()
		res.ExhaustedFrames = ts.Exhausted()
		for r := 0; r < w.Size(); r++ {
			res.BackoffSim += w.Phases(r).Seconds(metrics.PhaseRetransmit)
		}
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
	lp := &ftLoop{comm: c, strat: cfg.Strategy, lastCkpt: -1}
	if pol.Enabled() {
		lp.wr = ckpt.NewWriter(ckpt.Config{Dir: pol.Dir, DiskBWGiBs: pol.DiskBWGiBs, Async: pol.Async}, c)
	}
	maxRec := 1
	if pol != nil && pol.MaxRecoveries > 0 {
		maxRec = pol.MaxRecoveries
	}

	// Tier 2 state: each rank runs an identical replica of the health
	// monitor (CollectScores hands every rank the same scores, so the
	// replicas never diverge and mitigation needs no extra agreement
	// round). The engine runs the telemetry round as a request under each
	// step's gradient sync and returns its scores with the step's stats.
	// handled remembers which degraded slot-sets were already drained;
	// both reset after a recovery, which rebuilds placement.
	var mon *health.Monitor
	if pol != nil && pol.Escalation != train.EscalateRollback && w.Size() > 1 {
		mon = health.NewMonitor(w.Size(), health.Config{})
		eng.health = func() []float64 { return collectHealth(w, lp.comm) }
	}
	mitigate := pol != nil && pol.Escalation == train.EscalateTiered
	handled := map[string]bool{}

	finish := func() {
		st.UsefulSim += lp.pending // work after the last checkpoint still ran to completion
		if lp.wr != nil {
			if werr := lp.wr.WaitIdle(); werr != nil && st.err == nil {
				st.err = werr
			}
		}
		st.Steps = eng.Trainer.StepCount()
		st.Completed = st.err == nil
		if mon != nil {
			st.DegradedRanks = mon.Degraded()
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
			if lp.wr != nil {
				lp.wr.WaitIdle()
			}
			lp.comm.Abandon()
			st.crashed = true
			st.Steps = step
			return
		}
		// The scalars a failed step may already have moved (the batch is
		// drawn before the gradient sync) — all a roll-forward needs
		// besides the tensors, which no survivor can update without the
		// whole group.
		start := eng.Trainer.CheckpointHeader()
		var stats StepStats
		perr := mpi.Protect(func() {
			// The step-0 save is the bootstrap checkpoint: it guarantees
			// every later failure has a committed state to roll back to.
			// Saves are suspended while a mitigation drain is active
			// (len(handled) > 0): shard layouts under a drained placement
			// do not match the block placement Reform rebuilds, so a
			// post-mitigation crash must roll back to the last checkpoint
			// written under block placement and replay from there.
			if lp.wr != nil && step%pol.Interval == 0 && int64(step) != lp.lastCkpt && len(handled) == 0 {
				if serr := lp.wr.Save(int64(step), start, eng.CheckpointShard(), eng.CheckpointLayout()); serr != nil {
					st.err = serr
					return
				}
				lp.lastCkpt = int64(step)
				st.Checkpoints++
				// Credit the sim-time behind this checkpoint as useful.
				// If the checkpoint later aborts (async flush racing a
				// crash), the rollback path takes the credit back.
				st.UsefulSim += lp.pending
				lp.lastCredit, lp.pending = lp.pending, 0
			}
			stats = eng.Step()
			// Tier 2: fold the step's link telemetry into the health monitor.
			if mon != nil {
				mon.Observe(stats.health)
				deg := mon.Degraded()
				if cfg.observed != nil {
					cfg.observed(my, stats.Step, stats.health, deg)
				}
				if mitigate && len(deg) > 0 {
					// Degraded world ranks map to expert-parallel slots;
					// every EP group drains the same slots so placement
					// stays DP-symmetric.
					slots := make([]bool, lp.strat.ExpertParallel)
					flagged := 0
					for _, g := range deg {
						for q := 0; q < lp.comm.Size(); q++ {
							if lp.comm.Global(q) == g {
								if s := q % lp.strat.ExpertParallel; !slots[s] {
									slots[s] = true
									flagged++
								}
							}
						}
					}
					if flagged > 0 && flagged < lp.strat.ExpertParallel {
						sig := fmt.Sprint(slots)
						if !handled[sig] {
							handled[sig] = true
							m0 := lp.comm.Now()
							if merr := eng.Mitigate(slots); merr != nil {
								st.err = merr
								return
							}
							st.Mitigations++
							lp.comm.Phases().Observe(metrics.PhaseMitigation, lp.comm.Now()-m0)
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
			if cfg.stepped != nil {
				cfg.stepped(my, eng, stats)
			}
			lp.pending += stats.SimTime
			st.FinalLoss = stats.Loss
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
			st.Steps = eng.Trainer.StepCount()
			return
		}
		// What the rank trained when the step failed, before any re-form
		// changes it; a drained placement is not the block placement the
		// re-form rebuilds, so it always restores from disk.
		ss := &stepStart{hdr: start, held: eng.replicated(), live: len(handled) == 0}
		for {
			if lp.wr == nil || st.Recoveries >= maxRec {
				st.Unrecoverable = true
				finish()
				st.Completed = false
				return
			}
			st.Recoveries++
			// recoverRank communicates throughout (shrink agreement,
			// re-form splits, restore); Protect the whole round so a
			// further fault mid-recovery surfaces as a typed error and
			// feeds the retry below instead of killing the goroutine.
			var rerr error
			if perr := mpi.Protect(func() {
				rerr = recoverRank(eng, cfg, lp, ss, st)
			}); perr != nil {
				rerr = perr
			}
			if rerr == nil {
				// Tier 2 state restarts from scratch: Reform rebuilt the
				// placement, and EWMAs over the pre-shrink world are
				// meaningless for the survivors.
				if mon != nil {
					if lp.comm.Size() > 1 {
						mon = health.NewMonitor(w.Size(), health.Config{})
					} else {
						mon, eng.health = nil, nil
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
				if st.Unrecoverable {
					// A verdict, not a malfunction: no committed
					// checkpoint, or no viable grid over the survivors.
					finish()
					st.Completed = false
					return
				}
				st.err = rerr
				finish()
				st.Completed = false
				return
			}
		}
	}
	finish()
}

// ftLoop is the part of one rank's fault-tolerant loop state that a
// recovery updates in place.
type ftLoop struct {
	comm       *mpi.Comm
	strat      Strategy
	wr         *ckpt.Writer
	lastCkpt   int64   // the last checkpoint this rank credited
	pending    float64 // sim-time of completed steps no checkpoint has credited yet
	lastCredit float64 // the credit lastCkpt took
}

// stepStart is what a survivor keeps, from the moment a step fails, to
// roll forward to the start of that step.
type stepStart struct {
	hdr  ckpt.Header        // the trainer's scalars at the top of the step
	held map[*nn.Param]bool // the replicated tensors the rank trained then
	live bool               // held is still the step-start state: no drain, no restore since
}

// recoveryVote is a recovery's one agreement round: an all-reduce (max)
// of [-latest committed step, step count, -step count, cannot roll
// forward]. It returns the rollback step every survivor can read (the
// min of their Latest) and whether the run rolls forward: every
// survivor still holds its step-start state and all stand at the same
// step, so nobody applied the interrupted step's update.
func recoveryVote(c *mpi.Comm, latest int64, steps int, live bool) (agreed int64, rollForward bool) {
	cannot := float32(1)
	if live {
		cannot = 0
	}
	red := c.AllReduce([]float32{-float32(latest), float32(steps), -float32(steps), cannot}, mpi.OpMax)
	return -int64(red[0]), red[1] == -red[2] && red[3] == 0
}

// recoverRank runs one recovery round for a survivor: drain its
// checkpoint flushes, shrink the communicator, re-form the engine, vote
// on the path, restore — from live memory or from the agreed checkpoint —
// and meter the whole detour on the virtual clock. lp is updated in
// place on success. Communication failures (another rank dying
// mid-recovery) return typed mpi errors for the caller to retry on.
func recoverRank(eng *Engine, cfg FTConfig, lp *ftLoop, ss *stepStart, st *rankState) error {
	pol := cfg.Policy
	// Drain this rank's own background flushes so every shard it issued
	// is on disk (possibly committing a checkpoint) before the rollback
	// point is chosen. Deliberately NOT ckpt.AbandonPending: another
	// survivor's flush may be about to complete a commit this rank
	// would then wrongly abort. A checkpoint the dead rank never
	// contributed to simply never commits — its stale coordinator is
	// replaced when the shrunk world re-saves that step.
	lp.wr.WaitIdle()

	newComm := lp.comm.ShrinkTo(lp.comm.Survivors())

	// No survivor scans for the rollback point until every survivor has
	// drained: otherwise whether a checkpoint whose last shard is another
	// survivor's counts as committed depends on whose flush goroutine the
	// host ran first, and the run rolls back one interval further on some
	// executions than on others.
	newComm.Barrier()
	// Only now is the survivor set one every member agreed on. A rank can
	// list the survivors while a second victim of the same step is still
	// alive; that set may have no grid, but the barrier fails on it and
	// the retry shrinks again. Judging the grid before the barrier let
	// such a rank exit unrecoverable alone, and its peers wait for it at
	// this barrier forever.
	newStrat, serr := ShrinkStrategy(lp.strat, newComm.Size(), cfg.Model.NumExperts, cfg.Model.MoEEvery > 0)
	if serr != nil {
		st.Unrecoverable = true
		return serr
	}
	latest, lerr := ckpt.Latest(pol.Dir)
	if lerr != nil {
		return lerr
	}

	nw := ckpt.NewWriter(ckpt.Config{Dir: pol.Dir, DiskBWGiBs: pol.DiskBWGiBs, Async: pol.Async}, newComm)
	recoverStart := newComm.Now()
	if rerr := eng.Reform(newComm, newStrat); rerr != nil {
		return rerr
	}
	// Roll forward only if this rank's live state is provably the step
	// start under the new layout: no restore touched it, the step's
	// update was not applied, the optimizer keeps nothing rank-exclusive
	// (ZeRO moment shards belong to one rank), and the re-form handed it
	// no tensor it did not already train.
	live := ss.live && eng.zero == nil && eng.Trainer.StepCount() == int(ss.hdr.Step) && eng.holdsOnly(ss.held)
	// Survivors can still disagree on Latest when a rank that peers
	// declared failed (it exits without draining) commits a manifest
	// late; the min over the shrunk communicator is committed
	// everywhere.
	var agreed int64
	var forward bool
	if aerr := mpi.Protect(func() {
		agreed, forward = recoveryVote(newComm, latest, eng.Trainer.StepCount(), live)
	}); aerr != nil {
		return aerr
	}
	var hdr *ckpt.Header
	if forward {
		// Nothing is lost: the completed steps stay credited (pending
		// included) and the interrupted step, never credited, runs once.
		hdr = &ss.hdr
	} else {
		ss.live = false // the restore below overwrites the live state
		if agreed < 0 {
			st.Unrecoverable = true
			return fmt.Errorf("parallel: failure before any committed checkpoint")
		}
		if agreed != lp.lastCkpt {
			// The last checkpoint this rank credited never committed
			// world-wide; its sim-time was lost in the rollback after all.
			st.UsefulSim -= lp.lastCredit
		}
		lp.lastCredit, lp.pending = 0, 0
	}
	if _, rerr := eng.Restore(pol.Dir, agreed, hdr, nw.RestoreSeconds); rerr != nil {
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
	// wait); the record only books it.
	newComm.Phases().Observe(metrics.PhaseRecovery, newComm.Now()-recoverStart)
	lp.comm, lp.strat, lp.wr = newComm, newStrat, nw
	if forward {
		st.RolledForward++
	} else {
		lp.lastCkpt = agreed
	}
	if cfg.afterRecovery != nil {
		cfg.afterRecovery(eng, forward)
	}
	return nil
}
