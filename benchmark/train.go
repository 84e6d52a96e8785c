package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bagualu/internal/ckpt"
	"bagualu/internal/data"
	"bagualu/internal/fault"
	"bagualu/internal/mpi"
	"bagualu/internal/parallel"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
	"bagualu/internal/train"
)

// hostBarrier aligns rank goroutines on the host clock only: it charges
// nothing to the virtual clock and sends no simulated message, so the
// program's counters are those of an unsynchronised run.
type hostBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n       int
	waiting int
	gen     int
	aborted bool
}

func newHostBarrier(n int) *hostBarrier {
	b := &hostBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *hostBarrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		return
	}
	gen := b.gen
	b.waiting++
	if b.waiting == b.n {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen == b.gen && !b.aborted {
		b.cond.Wait()
	}
}

// abort releases every waiter for good; a panicking rank calls it so
// its peers reach the simulated world's own closed-world unwinding
// instead of hanging here.
func (b *hostBarrier) abort() {
	b.mu.Lock()
	b.aborted = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// runRanks runs fn on every rank of w, handing each the same host
// barrier; a rank that panics releases the barrier before the panic
// travels on.
func runRanks(w *mpi.World, fn func(c *mpi.Comm, bar *hostBarrier)) {
	bar := newHostBarrier(w.Size())
	w.Run(func(c *mpi.Comm) {
		defer func() {
			if p := recover(); p != nil {
				bar.abort()
				panic(p)
			}
		}()
		fn(c, bar)
	})
}

func (s engineSpec) machine() *sunway.Machine {
	return sunway.TestMachine(s.supernodes, s.nodesPerSN)
}

// rate is the per-rank virtual FLOP/s, priced exactly as
// parallel.ShortRun does.
func (s engineSpec) rate() float64 {
	return s.machine().NodeFlops(s.train.Precision) * efficiency / float64(s.ranksPerNode)
}

func (s engineSpec) corpus(seed uint64) data.CorpusConfig {
	return data.CorpusConfig{
		Vocab: s.model.GPT.Vocab, SeqLen: s.model.GPT.SeqLen,
		Zipf: s.zipf, Determinism: 0.85, Seed: seed*7919 + 17,
	}
}

func (s engineSpec) modelConfig() parallel.ModelConfig {
	mc := s.model
	mc.MoESimFLOPS = s.rate()
	return mc
}

// build constructs one rank's engine the way parallel.ShortRun wires it.
func (s engineSpec) build(c *mpi.Comm, seed uint64) (*parallel.Engine, error) {
	e, err := parallel.NewEngine(c, s.strat, s.modelConfig(), s.corpus(seed), s.train,
		train.OptimizerFactory(s.zero, 0)(), seed)
	if err != nil {
		return nil, err
	}
	e.SetComputeRate(s.rate())
	return e, nil
}

// stepRec is rank 0's record of one timed Engine.Step.
type stepRec struct {
	host                float64 // host seconds inside Engine.Step
	st                  parallel.StepStats
	traced              bool
	mallocs, allocBytes uint64 // runtime.MemStats deltas across the step (traced steps)
}

// engineRun is everything rank 0 observed while driving one engine
// workload.
type engineRun struct {
	setups        []float64 // host seconds of each set-up repetition (build + warm-up steps)
	firstLoss     float32   // loss of optimizer step 0
	steps         []stepRec
	tokensPerStep int
	timedHost     float64        // host seconds from first to last timed step
	traffic       simnet.Traffic // world traffic over the timed steps
	poolGets      int64
	poolMisses    int64
	optStateBytes int64
	imbalance     float64 // max/mean expert token count, rank 0's last routing
	ckptSaveSec   []float64
	ckptLoadSec   []float64
	ckptBytes     int64
	err           error
}

// runEngine drives an engine workload: setupReps times (world, per-rank
// engine, warm-up steps), then on the last repetition the timed steps.
// Untraced, it takes spec.fixed steps and keeps stepping until seconds
// of host time have passed; traced, it takes spec.fixed untraced then
// spec.fixed traced steps and times the checkpoint rung on the live
// engine.
func runEngine(ctx *runCtx, s engineSpec) *engineRun {
	run := &engineRun{}
	topo := simnet.New(s.machine(), s.ranksPerNode)
	ranks := s.strat.Size()
	for rep := 0; rep < setupReps; rep++ {
		last := rep == setupReps-1
		t0 := time.Now()
		sid := ctx.tr.begin("setup")
		wid := ctx.tr.begin("mpi.NewWorld")
		w := mpi.NewWorld(ranks, topo)
		ctx.tr.end(wid, nil)
		var stop atomic.Bool
		runRanks(w, func(c *mpi.Comm, bar *hostBarrier) {
			rank0 := c.Rank() == 0
			var eid int
			if rank0 {
				eid = ctx.tr.begin("parallel.NewEngine")
			}
			e, err := s.build(c, ctx.seed)
			if rank0 {
				ctx.tr.end(eid, nil)
			}
			if err != nil {
				if rank0 {
					run.err = err
				}
				return
			}
			for i := 0; i < s.warmup; i++ {
				st := e.Step()
				if rank0 && i == 0 {
					run.firstLoss = st.Loss
				}
			}
			bar.wait()
			if rank0 {
				run.setups = append(run.setups, time.Since(t0).Seconds())
				ctx.tr.end(sid, nil)
			}
			if !last {
				return
			}
			var base simnet.Traffic
			var gets0, miss0 int64
			var timedStart time.Time
			if rank0 {
				run.tokensPerStep = e.GlobalBatchTokens()
				run.optStateBytes = e.OptStateBytes()
				base = w.Stats().Snapshot()
				gets0, miss0, _ = tensor.PoolStats()
				timedStart = time.Now()
			}
			for n := 0; ; n++ {
				traced := ctx.trace && n >= s.fixed
				var rec stepRec
				var m0 runtime.MemStats
				id := -1
				if rank0 && traced {
					id = ctx.tr.begin("Engine.Step")
					runtime.ReadMemStats(&m0)
				}
				t1 := time.Now()
				st := e.Step()
				if rank0 {
					rec.host = time.Since(t1).Seconds()
					rec.st, rec.traced = st, traced
					if traced {
						var m1 runtime.MemStats
						runtime.ReadMemStats(&m1)
						rec.mallocs, rec.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
						ctx.tr.end(id, stepArgs(st, w, rec))
					}
					run.steps = append(run.steps, rec)
					done := n+1 >= s.fixed && time.Since(timedStart).Seconds() >= ctx.seconds
					if ctx.trace {
						done = n+1 >= 2*s.fixed
					}
					stop.Store(done)
				}
				// Every step ends in a world all-reduce, so no rank can
				// finish step n+1 before rank 0 has stored step n's verdict.
				bar.wait()
				if stop.Load() {
					break
				}
			}
			if rank0 {
				run.timedHost = time.Since(timedStart).Seconds()
				run.traffic = w.Stats().Snapshot().Sub(base)
				gets1, miss1, _ := tensor.PoolStats()
				run.poolGets, run.poolMisses = gets1-gets0, miss1-miss0
				run.imbalance = routingImbalance(e)
			}
			if ctx.trace {
				ckptRung(ctx, run, e, bar, rank0)
			}
		})
		if run.err != nil {
			return run
		}
		runtime.GC() // drop the discarded repetition before building the next
	}
	return run
}

// stepArgs is the counter snapshot attached to a traced step's span.
func stepArgs(st parallel.StepStats, w *mpi.World, rec stepRec) map[string]float64 {
	tr := w.Stats().Snapshot()
	gets, misses, _ := tensor.PoolStats()
	return map[string]float64{
		"sim_s": st.SimTime, "loss": float64(st.Loss),
		"sim_grad_sync_s": st.GradSync, "sim_bubble_s": st.BubbleSim,
		"sim_optimizer_shard_s": st.OptimizerShard, "sim_param_gather_s": st.ParamGather,
		"host_moe_gate_s": st.MoE.Gate, "host_moe_dispatch_s": st.MoE.Dispatch,
		"host_moe_expert_s": st.MoE.Expert, "host_moe_combine_s": st.MoE.Combine,
		"wire_bytes": float64(st.Wire.TotalWire()), "world_bytes": float64(tr.Bytes[0] + tr.Bytes[1] + tr.Bytes[2] + tr.Bytes[3]),
		"pool_gets": float64(gets), "pool_misses": float64(misses),
		"mallocs": float64(rec.mallocs), "alloc_bytes": float64(rec.allocBytes),
	}
}

// routingImbalance is max/mean expert token count over the MoE layers
// this rank routed in its last step (0 for a dense model).
func routingImbalance(e *parallel.Engine) float64 {
	var sum float64
	var layers int
	for _, m := range e.MoELayers() {
		r := m.LastRouting()
		if r == nil || len(r.Counts) == 0 {
			continue
		}
		max, total := 0, 0
		for _, c := range r.Counts {
			total += c
			if c > max {
				max = c
			}
		}
		if total == 0 {
			continue
		}
		sum += float64(max) * float64(len(r.Counts)) / float64(total)
		layers++
	}
	if layers == 0 {
		return 0
	}
	return sum / float64(layers)
}

// ckptRung times the sharded checkpoint write and read paths on the live
// engine through the layout-general API RunFaultTolerant uses
// (ckpt.Writer.Save in sync mode, ckpt.Restore). Engine.SaveSharded and
// LoadSharded are not used: under a pipelined grid LoadSharded fails on
// every stage but the first before reaching its barrier, which hangs the
// stage that succeeded (README "Known issues"). Every rank calls this;
// rank 0 records.
func ckptRung(ctx *runCtx, run *engineRun, e *parallel.Engine, bar *hostBarrier, rank0 bool) {
	// Fewer calls than the other rungs: one restore scans every shard on
	// every rank and takes over a second at train_moe_ep8's size.
	const ckptCalls = 5
	dir := filepath.Join(ctx.tmp, "ckpt-rung")
	c, strat := e.Comm, e.Strategy
	lay := ckpt.Layout{WorldSize: c.Size(), DataParallel: strat.DataParallel, ExpertParallel: strat.ExpertParallel,
		Pipeline: strat.Pipeline, Virtual: strat.Virtual}
	wr := ckpt.NewWriter(ckpt.Config{Dir: dir, DiskBWGiBs: 0.5}, c)
	rid := -1
	if rank0 {
		rid = ctx.tr.begin("ladder.ckpt")
	}
	fail := func(op string, err error) {
		if err != nil && rank0 {
			run.err = fmt.Errorf("%s: %w", op, err)
		}
	}
	for i := 0; i < ckptCalls; i++ {
		bar.wait()
		t0 := time.Now()
		id := -1
		if rank0 {
			id = ctx.tr.begin("ckpt.Writer.Save")
		}
		err := wr.Save(int64(i), e.Trainer.CheckpointHeader(), e.Trainer.CheckpointParams(), lay)
		bar.wait() // the checkpoint is committed once every shard has landed
		if rank0 {
			ctx.tr.end(id, nil)
			run.ckptSaveSec = append(run.ckptSaveSec, time.Since(t0).Seconds())
		}
		fail("ckpt save", err)
	}
	if rank0 {
		run.ckptBytes = dirBytes(ckpt.StepDir(dir, 0))
	}
	for i := 0; i < ckptCalls; i++ {
		bar.wait()
		t0 := time.Now()
		id := -1
		if rank0 {
			id = ctx.tr.begin("ckpt.Restore")
		}
		_, err := ckpt.Restore(dir, 0, c.Rank(), e.Trainer.CheckpointParams())
		bar.wait()
		if rank0 {
			ctx.tr.end(id, nil)
			run.ckptLoadSec = append(run.ckptLoadSec, time.Since(t0).Seconds())
		}
		fail("ckpt restore", err)
	}
	if rank0 {
		ctx.tr.end(rid, nil)
	}
}

func dirBytes(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}

// trafficMetrics reports a world's simulated traffic per step (an engine
// step or a serving step) and the host time the simulator spent per
// simulated message.
func trafficMetrics(out *outcome, tr simnet.Traffic, steps, hostSeconds float64) {
	var msgs, bytes float64
	for l := range tr.Msgs {
		msgs += float64(tr.Msgs[l])
		bytes += float64(tr.Bytes[l])
	}
	if steps == 0 || msgs == 0 {
		return
	}
	out.layer["mpi.msgs_per_step"] = msgs / steps
	out.layer["mpi.bytes_per_step"] = bytes / steps
	out.layer["mpi.inter_sn_bytes_per_step"] = float64(tr.InterBytes()) / steps
	out.layer["mpi.host_us_per_msg"] = hostSeconds * 1e6 / msgs
}

// engineOutcome turns rank 0's record into the run's metrics.
func engineOutcome(ctx *runCtx, s engineSpec, run *engineRun) *outcome {
	out := newOutcome()
	if run.err != nil {
		out.fail("engine: %v", run.err)
		return out
	}
	fixed := run.steps[:s.fixed]
	d := newDigest()
	var simFixed float64
	var simSteps, hostSteps []float64
	for _, r := range fixed {
		simFixed += r.st.SimTime
		simSteps = append(simSteps, r.st.SimTime*1e3)
		d.f32(r.st.Loss)
		d.f64(r.st.SimTime)
	}
	out.attempted = len(run.steps)
	for _, r := range run.steps {
		if !r.traced {
			hostSteps = append(hostSteps, r.host)
		}
		if l := float64(r.st.Loss); math.IsNaN(l) || math.IsInf(l, 0) {
			out.failed++
		}
	}
	if out.failed > 0 {
		out.fail("%d of %d steps returned a non-finite loss", out.failed, out.attempted)
	}
	finalLoss := fixed[len(fixed)-1].st.Loss
	if !(finalLoss < run.firstLoss) {
		out.fail("loss did not fall: step 0 %.4f, after %d timed steps %.4f", run.firstLoss, s.fixed, finalLoss)
	}
	out.digest = d.String()
	tokens := float64(run.tokensPerStep)

	out.e2e["setup_s"] = median(run.setups)
	out.e2e["host_tokens_per_s"] = tokens / fastest(hostSteps)
	out.e2e["sim_tokens_per_s"] = tokens * float64(len(fixed)) / simFixed
	out.e2e["sim_latency_p50_ms"] = quantile(simSteps, 0.5)
	out.info("timed steps %d (fixed %d), tokens/step %d, host step ms: fastest %.1f, p25 %.1f, p50 %.1f, p75 %.1f",
		len(run.steps), s.fixed, run.tokensPerStep, fastest(hostSteps)*1e3,
		quantile(hostSteps, 0.25)*1e3, median(hostSteps)*1e3, quantile(hostSteps, 0.75)*1e3)

	out.layer["train.final_loss"] = float64(finalLoss)
	out.layer["train.loss_drop"] = float64(run.firstLoss - finalLoss)
	if ctx.trace {
		engineLayerMetrics(out, s, run)
	}
	return out
}

// engineLayerMetrics fills the per-layer numbers an engine workload can
// observe from public counters at step boundaries (traced steps only).
func engineLayerMetrics(out *outcome, s engineSpec, run *engineRun) {
	var traced, untraced []stepRec
	for _, r := range run.steps {
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	n := float64(len(traced))
	all := float64(len(run.steps))
	col := func(rs []stepRec, f func(stepRec) float64) []float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		return xs
	}
	mean := func(f func(stepRec) float64) float64 {
		var t float64
		for _, r := range traced {
			t += f(r)
		}
		return t / n
	}
	host := func(r stepRec) float64 { return r.host }
	hostTraced, hostPlain := col(traced, host), col(untraced, host)

	out.layer["trace.overhead_share"] = (median(hostTraced) - median(hostPlain)) / median(hostPlain)
	out.layer["parallel.step_ms_p50"] = quantile(hostTraced, 0.5) * 1e3
	out.layer["parallel.step_ms_p90"] = quantile(hostTraced, 0.9) * 1e3
	out.layer["parallel.allocs_per_step"] = mean(func(r stepRec) float64 { return float64(r.mallocs) })
	out.layer["parallel.alloc_kb_per_step"] = mean(func(r stepRec) float64 { return float64(r.allocBytes) / 1024 })

	sim := mean(func(r stepRec) float64 { return r.st.SimTime })
	gradSync := mean(func(r stepRec) float64 { return r.st.GradSync })
	bubble := mean(func(r stepRec) float64 { return r.st.BubbleSim })
	optShard := mean(func(r stepRec) float64 { return r.st.OptimizerShard })
	gather := mean(func(r stepRec) float64 { return r.st.ParamGather })
	out.layer["parallel.sim_grad_sync_share"] = gradSync / sim
	out.layer["parallel.sim_s_per_host_s"] = sim / mean(host)
	out.layer["pipe.sim_bubble_share"] = bubble / sim
	if pp, m, v := s.strat.PP(), s.train.Accum, s.strat.VPP(); pp > 1 {
		out.layer["pipe.sim_bubble_vs_ideal"] = (bubble / sim) / (float64(pp-1) / float64(m*v))
		// Computed from shapes, not measured: each micro-batch crosses
		// every chunk boundary once forward (activations) and once
		// backward (gradients), fp32, on each of the stage's replicas.
		rows := s.train.Batch * s.model.GPT.SeqLen
		crossings := 2 * m * (pp*v - 1)
		out.layer["pipe.boundary_bytes_per_step"] = float64(crossings * rows * s.model.GPT.Dim * 4 * s.strat.DataParallel * s.strat.ExpertParallel)
	}
	out.layer["train.sim_optimizer_shard_ms"] = optShard * 1e3
	out.layer["train.sim_param_gather_ms"] = gather * 1e3
	out.layer["train.opt_state_kb_per_rank"] = float64(run.optStateBytes) / 1024

	out.layer["moe.host_gate_ms"] = mean(func(r stepRec) float64 { return r.st.MoE.Gate }) * 1e3
	out.layer["moe.host_dispatch_ms"] = mean(func(r stepRec) float64 { return r.st.MoE.Dispatch }) * 1e3
	out.layer["moe.host_expert_ms"] = mean(func(r stepRec) float64 { return r.st.MoE.Expert }) * 1e3
	out.layer["moe.host_combine_ms"] = mean(func(r stepRec) float64 { return r.st.MoE.Combine }) * 1e3
	out.layer["moe.load_imbalance"] = run.imbalance

	var wire, raw float64
	for _, r := range traced {
		wire += float64(r.st.Wire.TotalWire())
		for _, b := range r.st.Wire.Raw {
			raw += float64(b)
		}
	}
	if raw > 0 {
		out.layer["mpi.wire_ratio"] = wire / raw
	}
	trafficMetrics(out, run.traffic, all, run.timedHost)
	if run.poolGets+run.poolMisses > 0 {
		out.layer["tensor.pool_miss_share"] = float64(run.poolMisses) / float64(run.poolGets+run.poolMisses)
	}
	// Everything on the virtual clock that is not an exchange, a sync or
	// a stall is compute; host-clock MoE phase times cannot enter here.
	out.layer["parallel.sim_compute_share"] = 1 - (gradSync+bubble+gather)/sim

	save, load := median(run.ckptSaveSec), median(run.ckptLoadSec)
	out.layer["ckpt.save_ms"] = save * 1e3
	out.layer["ckpt.restore_ms"] = load * 1e3
	if save > 0 {
		out.layer["ckpt.save_mb_per_s"] = float64(run.ckptBytes) / (1 << 20) / save
	}
	out.info("trace: %d traced steps, step host p50 %.1f ms traced vs %.1f ms untraced",
		len(traced), median(hostTraced)*1e3, median(hostPlain)*1e3)
}

// runFT runs the fault-tolerant workload: set-up (a reference world that
// takes optimizer step 0, which fixes the loss the run must beat and
// fills the tensor pool) setupReps times, then whole RunFaultTolerant
// rounds with identical inputs until seconds have passed.
func runFT(ctx *runCtx, s ftSpec) *outcome {
	out := newOutcome()
	topo := simnet.New(s.machine(), s.ranksPerNode)
	ranks := s.strat.Size()

	var setups []float64
	var firstLoss float32
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		sid := ctx.tr.begin("setup")
		var err error
		mpi.NewWorld(ranks, topo).Run(func(c *mpi.Comm) {
			e, berr := s.build(c, ctx.seed)
			if berr != nil {
				err = berr
				return
			}
			for i := 0; i < s.warmup; i++ {
				if st := e.Step(); c.Rank() == 0 && i == 0 {
					firstLoss = st.Loss
				}
			}
		})
		ctx.tr.end(sid, nil)
		if err != nil {
			out.fail("reference engine: %v", err)
			return out
		}
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC()
	}

	// The victims move with the seed; rank 0 is spared so the reporting
	// rank is the same in every run.
	events := make([]fault.Event, len(s.crashSteps))
	for i, step := range s.crashSteps {
		events[i] = fault.Event{Kind: fault.EventCrash, Step: step, Rank: 1 + int((ctx.seed+uint64(i)*3)%uint64(ranks-1))}
		if i > 0 && events[i].Rank == events[i-1].Rank {
			events[i].Rank = 1 + events[i].Rank%(ranks-1)
		}
	}

	var results []*parallel.FTResult
	var hosts []float64
	var traffic simnet.Traffic // round 0's world
	start := time.Now()
	for r := 0; ctx.another(r, start, hosts); r++ {
		tr := ctx.tr
		if ctx.trace && r == 0 {
			tr = nil // round 0 is the untraced twin the overhead is measured against
		}
		dir := filepath.Join(ctx.tmp, fmt.Sprintf("ft-%d", r))
		inj, err := fault.Scripted(fault.Config{Seed: ctx.seed, Ranks: ranks, Steps: s.steps, DropProb: s.dropProb}, events)
		if err != nil {
			out.fail("fault schedule: %v", err)
			return out
		}
		w := mpi.NewWorld(ranks, topo)
		cfg := parallel.FTConfig{
			Strategy: s.strat, Model: s.modelConfig(), Corpus: s.corpus(ctx.seed), Train: s.train,
			Seed: ctx.seed, Steps: s.steps,
			Policy: &train.FaultPolicy{
				Dir: dir, Interval: s.ckptEvery, Async: true, DiskBWGiBs: 0.5,
				MaxRecoveries: len(s.crashSteps) + 1, Escalation: train.EscalateTiered,
			},
			OptFor:       train.OptimizerFactory(false, 0),
			ComputeFLOPS: s.rate(),
		}
		id := tr.begin("parallel.RunFaultTolerant")
		t0 := time.Now()
		res, err := parallel.RunFaultTolerant(w, cfg, inj)
		hosts = append(hosts, time.Since(t0).Seconds())
		if err != nil {
			tr.end(id, nil)
			out.fail("RunFaultTolerant: %v", err)
			return out
		}
		tr.end(id, map[string]float64{
			"sim_total_s": res.TotalSim, "sim_useful_s": res.UsefulSim, "recoveries": float64(res.Recoveries),
			"retransmits": float64(res.Retransmits), "checkpoints": float64(res.Checkpoints),
		})
		if r == 0 {
			traffic = w.Stats().Snapshot()
		}
		results = append(results, res)
		os.RemoveAll(dir)
	}

	first := results[0]
	wantWorld := ranks - len(s.crashSteps)
	out.attempted = s.steps
	switch {
	case first.Unrecoverable || !first.Completed:
		out.failed = s.steps - first.Steps
		out.fail("run ended completed=%v unrecoverable=%v at step %d of %d", first.Completed, first.Unrecoverable, first.Steps, s.steps)
	case first.FinalWorld != wantWorld || first.Recoveries != len(s.crashSteps):
		out.fail("final world %d after %d recoveries, want %d after %d", first.FinalWorld, first.Recoveries, wantWorld, len(s.crashSteps))
	}
	if l := float64(first.FinalLoss); math.IsNaN(l) || math.IsInf(l, 0) || !(first.FinalLoss < firstLoss) {
		out.fail("loss did not fall: step 0 %.4f, final %.4f", firstLoss, first.FinalLoss)
	}
	for _, res := range results {
		// The loss trajectory is exact; virtual time is not (failure
		// detection order depends on goroutine scheduling), so rounds
		// must agree on the first and stay within 0.5% on the second.
		if res.FinalLoss != first.FinalLoss || math.Abs(res.TotalSim-first.TotalSim) > 5e-3*first.TotalSim {
			out.fail("rounds with identical inputs diverged: loss %v vs %v, sim %.9f vs %.9f",
				res.FinalLoss, first.FinalLoss, res.TotalSim, first.TotalSim)
		}
	}
	d := newDigest()
	d.f32(first.FinalLoss)
	d.u64(uint64(first.Steps))
	d.u64(uint64(first.FinalWorld))
	out.digest = d.String()

	// Nominal tokens: completed steps x the initial global batch. The
	// shrunk world trains fewer real tokens per step; the nominal count
	// keeps the metric a pure function of time.
	tokens := float64(first.Steps * s.train.Batch * s.model.GPT.SeqLen * ranks)
	out.e2e["setup_s"] = median(setups)
	out.e2e["host_tokens_per_s"] = tokens / fastest(hosts)
	out.e2e["sim_tokens_per_s"] = tokens / first.TotalSim
	// RunFaultTolerant returns totals, not per-step times; the typical
	// step is a useful one (stalls and rework are in sim_tokens_per_s).
	out.e2e["sim_latency_p50_ms"] = first.UsefulSim / float64(first.Steps) * 1e3
	out.info("rounds %d, steps/round %d, nominal tokens/round %.0f, host s/round fastest %.2f p50 %.2f", len(results), s.steps, tokens, fastest(hosts), median(hosts))

	out.layer["train.final_loss"] = float64(first.FinalLoss)
	out.layer["train.loss_drop"] = float64(firstLoss - first.FinalLoss)
	if ctx.trace {
		out.layer["trace.overhead_share"] = (hosts[1] - hosts[0]) / hosts[0]
		out.layer["ft.sim_recovery_s"] = first.Timing.Recovery
		out.layer["ft.recoveries"] = float64(first.Recoveries)
		out.layer["ft.final_world"] = float64(first.FinalWorld)
		out.layer["ft.goodput_share"] = first.Goodput
		out.layer["ckpt.sim_snapshot_s"] = first.Timing.Snapshot
		out.layer["ckpt.sim_flush_s"] = first.Timing.Flush
		out.layer["ckpt.count"] = float64(first.Checkpoints)
		out.layer["mpi.retransmits"] = float64(first.Retransmits)
		out.layer["mpi.sim_backoff_s"] = first.BackoffSim
		steps := float64(first.Steps)
		trafficMetrics(out, traffic, steps, hosts[0])
		out.layer["parallel.step_ms_p50"] = hosts[0] * 1e3 / steps
		out.layer["parallel.sim_s_per_host_s"] = first.TotalSim / hosts[0]
	}
	return out
}
