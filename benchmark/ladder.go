package main

import (
	"path/filepath"
	"runtime"
	"time"

	"bagualu/internal/autotune"
	"bagualu/internal/ckpt"
	"bagualu/internal/half"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/serve"
	"bagualu/internal/simnet"
	"bagualu/internal/tensor"
)

// The ladder calls each layer's public functions in isolation at the
// traced workload's own shapes. Every rung builds its inputs (worlds,
// communicators, weights) once, outside the timed region — the thing
// bench_test.go's BenchmarkDistMoEStep and BenchmarkAllToAll get wrong —
// and reports the median of ladderCalls calls.
const ladderCalls = 11

// rung is one ladder measurement: host nanoseconds, heap objects and
// virtual seconds per call, so rung N can be read as rung N-1 calls plus
// overhead.
type rung struct {
	name   string
	ns     float64 // median host ns per call
	allocs float64 // heap objects per call (whole process, so all ranks of a world rung)
	simSec float64 // virtual seconds per call (0 for single-goroutine rungs)
	work   float64 // FLOPs, bytes or tokens per call; the metric's numerator
}

// ladder times rungs under one parent span.
type ladder struct {
	ctx   *runCtx
	rungs []rung
}

// measure times call ladderCalls times after one untimed warm-up call.
func (l *ladder) measure(name string, work float64, call func()) rung {
	id := l.ctx.tr.begin("ladder." + name)
	call()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ns := make([]float64, ladderCalls)
	for i := range ns {
		t0 := time.Now()
		call()
		ns[i] = float64(time.Since(t0).Nanoseconds())
	}
	runtime.ReadMemStats(&m1)
	r := rung{name: name, ns: median(ns), allocs: float64(m1.Mallocs-m0.Mallocs) / ladderCalls, work: work}
	l.ctx.tr.end(id, map[string]float64{"ns_per_call": r.ns, "allocs_per_call": r.allocs})
	l.rungs = append(l.rungs, r)
	return r
}

// measureWorld times a collective call on a world built once: every rank
// runs prepare, then ladderCalls+1 times before (untimed, may be nil: it
// builds one call's inputs) and call; rank 0's host time and virtual
// clock are recorded.
func (l *ladder) measureWorld(name string, work float64, ranks int, topo *simnet.Topology,
	prepare func(c *mpi.Comm) (before func(), call func())) rung {
	id := l.ctx.tr.begin("ladder." + name)
	ns := make([]float64, 0, ladderCalls)
	var sim float64
	var m0, m1 runtime.MemStats
	runRanks(mpi.NewWorld(ranks, topo), func(c *mpi.Comm, bar *hostBarrier) {
		before, call := prepare(c)
		for i := 0; i <= ladderCalls; i++ {
			if before != nil {
				before()
			}
			bar.wait() // all inputs ready: the timed section is the exchange alone
			if i == 1 && c.Rank() == 0 {
				runtime.ReadMemStats(&m0)
			}
			t0, s0 := time.Now(), c.Now()
			call()
			if i > 0 && c.Rank() == 0 { // call 0 is the warm-up
				ns = append(ns, float64(time.Since(t0).Nanoseconds()))
				sim += c.Now() - s0
			}
		}
		bar.wait()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m1)
		}
	})
	r := rung{name: name, ns: median(ns), allocs: float64(m1.Mallocs-m0.Mallocs) / ladderCalls, simSec: sim / ladderCalls, work: work}
	l.ctx.tr.end(id, map[string]float64{"ns_per_call": r.ns, "allocs_per_call": r.allocs, "sim_s_per_call": r.simSec})
	l.rungs = append(l.rungs, r)
	return r
}

func (l *ladder) report(out *outcome) {
	out.info("ladder (median of %d calls, construction outside the timed region):", ladderCalls)
	for _, r := range l.rungs {
		out.info("  %-28s %12.0f ns/call %9.1f allocs/call %.3e simsec/call", r.name, r.ns, r.allocs, r.simSec)
	}
}

// perSec is the rung's work (FLOPs, bytes) per host second.
func (r rung) perSec() float64 { return r.work / (r.ns / 1e9) }

// kernelRungs are the tensor and half rungs every workload shares; small
// selects the smoke-test sizes.
func (l *ladder) kernelRungs(out *outcome, dim, ffn, rows, experts int, small bool) {
	n := 512
	if small {
		n = 64
	}
	r := tensor.NewRNG(42)
	a := tensor.Uniform(r, -1, 1, n, n)
	b := tensor.Uniform(r, -1, 1, n, n)
	flops := 2 * float64(n) * float64(n) * float64(n)
	out.layer["tensor.gemm_tiled_gflops"] = l.measure("tensor.MatMulTiled", flops, func() { tensor.MatMulTiled(a, b) }).perSec() / 1e9
	out.layer["tensor.gemm_transb_gflops"] = l.measure("tensor.MatMulTransB", flops, func() { tensor.MatMulTransB(a, b) }).perSec() / 1e9

	// Decode-sized: a handful of rows against one weight matrix, below
	// the tiling threshold.
	x := tensor.Uniform(r, -1, 1, 4, dim)
	w := tensor.Uniform(r, -1, 1, dim, ffn)
	out.layer["tensor.gemm_naive_gflops"] = l.measure("tensor.MatMulNaive", 2*4*float64(dim)*float64(ffn),
		func() { tensor.MatMulNaive(x, w) }).perSec() / 1e9

	// Grouped expert GEMM: rows split evenly over the local experts.
	off := make([]int, experts+1)
	ws := make([]*tensor.Tensor, experts)
	for e := range ws {
		off[e+1] = rows * (e + 1) / experts
		ws[e] = tensor.Uniform(r, -1, 1, dim, ffn)
	}
	ga := tensor.Uniform(r, -1, 1, rows, dim)
	gout := tensor.New(rows, ffn)
	out.layer["tensor.gemm_grouped_gflops"] = l.measure("tensor.GroupedMatMulInto", 2*float64(rows)*float64(dim)*float64(ffn),
		func() { tensor.GroupedMatMulInto(gout, ga, off, ws) }).perSec() / 1e9

	elems := 1 << 18
	if small {
		elems = 1 << 12
	}
	src := tensor.Uniform(r, -1, 1, elems).Data
	enc := make([]uint16, elems)
	dec := make([]float32, elems)
	out.layer["half.quantize_gb_per_s"] = l.measure("half.EncodeSlice", 4*float64(elems), func() { half.EncodeSlice(enc, src) }).perSec() / 1e9
	out.layer["half.decode_gb_per_s"] = l.measure("half.DecodeSlice", 4*float64(elems), func() { half.DecodeSlice(dec, enc) }).perSec() / 1e9
}

// trainLadder decomposes an engine step: GEMM -> block fwd/bwd -> Local
// and Dist MoE step -> collectives. The engine step itself (the top
// rung) and the checkpoint rung run on the live engine in runEngine.
func trainLadder(ctx *runCtx, out *outcome, s engineSpec, small bool) {
	l := &ladder{ctx: ctx}
	id := ctx.tr.begin("ladder")
	g := s.model.GPT
	tokens := s.train.Batch * g.SeqLen
	experts, topk, hidden := s.model.NumExperts, s.model.TopK, s.model.MoEHidden
	hasMoE := s.model.MoEEvery > 0
	if !hasMoE {
		experts, topk, hidden = 4, 1, g.FFNHidden
	}
	local := experts / s.strat.ExpertParallel
	l.kernelRungs(out, g.Dim, hidden, tokens*topk, local, small)

	r := tensor.NewRNG(7)
	blk := nn.NewTransformerBlock("blk", r, g.Dim, g.Heads, g.SeqLen, g.FFNHidden)
	x := tensor.Randn(r, 1, tokens, g.Dim)
	ones := tensor.Ones(tokens, g.Dim)
	blk.Forward(x)
	fwd := l.measure("nn.TransformerBlock.Forward", float64(tokens), func() { blk.Forward(x) })
	bwd := l.measure("nn.TransformerBlock.Backward", float64(tokens), func() { blk.Backward(ones) })
	out.layer["nn.block_fwd_ms"] = fwd.ns / 1e6
	out.layer["nn.block_bwd_ms"] = bwd.ns / 1e6

	var moeStep rung
	if hasMoE {
		gc := moe.GateConfig{Dim: g.Dim, NumExperts: experts, TopK: topk, Mode: s.model.RouteMode, AuxLossWeight: s.model.AuxLossWeight}
		lm := moe.NewLocalMoE("moe", r, gc, hidden)
		out.layer["moe.local_fwdbwd_ms"] = l.measure("moe.LocalMoE.Forward+Backward", float64(tokens), func() {
			lm.Forward(x)
			lm.Backward(ones)
		}).ns / 1e6
		moeStep = l.rungs[len(l.rungs)-1]

		if ep := s.strat.ExpertParallel; ep > 1 {
			topo := simnet.New(s.machine(), s.ranksPerNode)
			moeStep = l.measureWorld("moe.DistMoE.Forward+Backward", float64(tokens), ep, topo, func(c *mpi.Comm) (func(), func()) {
				m := moe.NewDistMoEComm("moe", tensor.NewRNG(5), gc, hidden, c, s.model.Algo, s.model.Comm)
				m.SimRate = s.rate()
				xr := tensor.Randn(tensor.NewRNG(500+uint64(c.Rank())), 1, tokens, g.Dim)
				return nil, func() {
					m.Forward(xr)
					m.Backward(ones)
				}
			})
			out.layer["moe.dist_fwdbwd_ms"] = moeStep.ns / 1e6

			// The exchange alone, at the dispatch payload: every rank
			// sends its share of tokens*topk rows to each peer.
			rows := tokens * topk / ep
			codec := s.model.Comm.Codec
			out.layer["mpi.alltoallv_us"] = l.measureWorld("mpi.Comm.AllToAllv", float64(4*rows*g.Dim*ep), ep, topo, func(c *mpi.Comm) (func(), func()) {
				counts := make([]int, ep)
				for d := range counts {
					counts[d] = rows * g.Dim
				}
				row := make([]float32, rows*g.Dim)
				var sb *mpi.SendBuf
				return func() {
						sb = mpi.NewSendBuf(counts)
						for d := 0; d < ep; d++ {
							sb.Append(d, row)
						}
					}, func() {
						c.AllToAllv(sb, codec).Release()
						sb.Release()
					}
			}).ns / 1e3
		}
	}

	var sync rung
	if group := s.strat.Size() / s.strat.PP(); group > 1 {
		// Gradient-sync payload: the dense parameters of the layers one
		// rank owns, all-reduced over the replication group.
		floats := nn.NumParams(blk.Params()) * g.Layers / s.strat.PP()
		topo := simnet.New(s.machine(), s.ranksPerNode)
		sync = l.measureWorld("mpi.Comm.AllReduce", float64(4*floats), group, topo, func(c *mpi.Comm) (func(), func()) {
			buf := make([]float32, floats)
			return nil, func() { c.AllReduce(buf, mpi.OpSum) }
		})
		out.layer["mpi.allreduce_us"] = sync.ns / 1e3
	}

	// Rung N as rung N-1 calls plus overhead. One rank's step makes these
	// calls; the isolated rungs had both cores to themselves while the
	// engine's ranks share them, so the sum bounds a step only loosely
	// and is printed, not gated.
	micro := s.train.Accum
	if micro < 1 {
		micro = 1
	}
	blocks := micro * g.Layers / s.strat.PP()
	perRank := float64(blocks) * (fwd.ns + bwd.ns)
	moeCalls := 0
	if hasMoE {
		moeCalls = blocks / s.model.MoEEvery
		perRank += float64(moeCalls) * moeStep.ns
	}
	perRank += sync.ns
	out.info("one engine step, per rank: %d block fwd+bwd, %d MoE fwd+bwd, 1 grad sync = %.1f ms of lower rungs; %d ranks on %d cores took %.1f ms",
		blocks, moeCalls, perRank/1e6, s.strat.Size(), runtime.GOMAXPROCS(0), out.layer["parallel.step_ms_p50"])
	ctx.tr.end(id, nil)
	l.report(out)
}

// serveLadder decomposes a serving step: GEMM -> GPT.InferStep prefill
// and decode -> serve.Engine.Step in a closed-loop drain on one serving
// world, plus the inference checkpoint read path.
func serveLadder(ctx *runCtx, out *outcome, s serveSpec, small bool) {
	l := &ladder{ctx: ctx}
	id := ctx.tr.begin("ladder")
	g := s.gpt
	local := s.gate.NumExperts / s.ranks
	l.kernelRungs(out, g.Dim, s.hidden, s.maxBatch*s.gate.TopK, local, small)

	f := s.factory(ctx.seed)
	mpi.NewWorld(1, nil).Run(func(c *mpi.Comm) {
		model := f(c)
		prompt := make([]int, (s.promptMin+s.promptMax)/2)
		cache := model.NewKVCache()
		out.layer["nn.infer_prefill_us_per_tok"] = l.measure("nn.GPT.InferStep(prefill)", float64(len(prompt)), func() {
			cache.Len = 0
			model.InferStep(prompt, []nn.InferRun{{Cache: cache, Rows: len(prompt)}})
		}).ns / 1e3 / float64(len(prompt))

		// Decode: maxBatch resident sequences, one row each, caches
		// pre-filled to the mean prompt length.
		runs := make([]nn.InferRun, s.maxBatch)
		toks := make([]int, s.maxBatch)
		for i := range runs {
			kv := model.NewKVCache()
			model.InferStep(prompt, []nn.InferRun{{Cache: kv, Rows: len(prompt)}})
			runs[i] = nn.InferRun{Cache: kv, Rows: 1}
		}
		base := runs[0].Cache.Len
		out.layer["nn.infer_decode_us_per_tok"] = l.measure("nn.GPT.InferStep(decode)", float64(s.maxBatch), func() {
			for i := range runs {
				runs[i].Cache.Len = base
			}
			model.InferStep(toks, runs)
		}).ns / 1e3 / float64(s.maxBatch)

		dir := filepath.Join(ctx.tmp, "infer-rung")
		if err := ckpt.SaveForInference(dir, 0, model.Params()); err != nil {
			out.fail("ladder: SaveForInference: %v", err)
			return
		}
		out.layer["ckpt.load_infer_ms"] = l.measure("ckpt.LoadForInference", 4*float64(model.NumParams()), func() {
			if _, _, err := ckpt.LoadForInference(dir, model.Params()); err != nil {
				out.fail("ladder: LoadForInference: %v", err)
			}
		}).ns / 1e6
	})

	// Closed-loop drain: one replica-sized world built once, a slice of
	// the workload's own request shapes, a span per Engine.Step.
	n := 8 * s.maxBatch * s.ranks
	if n > s.requests {
		n = s.requests
	}
	reqs := s.stream(ctx.seed, n)
	var stepUS, rows, active []float64
	var steps int
	did := ctx.tr.begin("ladder.serve.Engine drain")
	w := mpi.NewWorld(s.ranks, s.topo())
	w.Run(func(c *mpi.Comm) {
		model := f(c)
		rank0 := c.Rank() == 0
		var last time.Time
		nid := -1
		if rank0 {
			nid = ctx.tr.begin("serve.NewEngine+Offer")
		}
		first := true
		drain(model, c, s.engineConfig(ctx.seed), serve.Partition(reqs, c.Rank(), c.Size()), func(e *serve.Engine, _ []serve.Completion) {
			if !rank0 {
				return
			}
			now := time.Now()
			if first {
				ctx.tr.end(nid, nil)
				first = false
			} else {
				// One iteration of the drain loop: Admit + Step (+ the
				// lockstep all-reduce serve.Run also pays).
				stepUS = append(stepUS, float64(now.Sub(last).Nanoseconds())/1e3)
				rows = append(rows, float64(e.LastRows()))
				var act int
				for _, b := range model.Blocks {
					if m, ok := b.FFN.(interface{ LastInferStats() moe.InferStats }); ok {
						act += m.LastInferStats().ActiveExperts
					}
				}
				active = append(active, float64(act))
			}
			steps++
			last = now
		})
	})
	tr := w.Stats().Snapshot()
	ctx.tr.end(did, map[string]float64{"steps": float64(steps), "requests": float64(n)})
	out.layer["serve.step_us_p50"] = quantile(stepUS, 0.5)
	out.layer["serve.step_us_p90"] = quantile(stepUS, 0.9)
	out.layer["serve.rows_per_step_p50"] = quantile(rows, 0.5)
	if len(active) > 0 {
		out.layer["moe.infer_active_experts_per_step"] = sumOf(active) / float64(len(active))
	}
	trafficMetrics(out, tr, float64(steps), sumOf(stepUS)/1e6)
	out.info("serve drain rung: %d requests, %d engine steps, step p50 %.0f us", n, steps, quantile(stepUS, 0.5))
	ctx.tr.end(id, nil)
	l.report(out)
}

// modelRungs reports how well the analytic perfmodel predicts the
// simulator: relative error of predicted vs measured virtual step time
// over autotune.Run's validated candidates, beside the rank agreement
// the repo already gates. It moves no end-to-end metric; it is the
// error bar to state beside any virtual-clock speed-up.
func modelRungs(ctx *runCtx, out *outcome) {
	id := ctx.tr.begin("ladder.autotune.Run")
	t0 := time.Now()
	plan, err := autotune.Run(autotune.Config{TopK: 4, ValidateSteps: 2, PPMax: 2, Seed: ctx.seed})
	host := time.Since(t0).Seconds()
	ctx.tr.end(id, nil)
	if err != nil {
		out.fail("autotune.Run: %v", err)
		return
	}
	var errs []float64
	for _, v := range plan.Validated {
		if m := v.Measured.SimPerStep; m > 0 {
			e := (v.Pred.StepTime - m) / m
			if e < 0 {
				e = -e
			}
			errs = append(errs, e)
		}
	}
	out.layer["perfmodel.step_rel_err_median"] = quantile(errs, 0.5)
	out.layer["perfmodel.step_rel_err_max"] = quantile(errs, 1)
	out.layer["autotune.kendall_tau"] = plan.Tau
	out.layer["autotune.plan_host_ms"] = host * 1e3
	out.info("perfmodel vs simulator over %d validated candidates: |pred-meas|/meas median %.2f max %.2f, tau %.2f",
		len(errs), quantile(errs, 0.5), quantile(errs, 1), plan.Tau)
}
