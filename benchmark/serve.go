package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"bagualu/internal/ckpt"
	"bagualu/internal/fault"
	"bagualu/internal/metrics"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/serve"
	"bagualu/internal/serve/fleet"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
)

// sampleTemp is the sampling temperature of both serving workloads:
// sampled decoding exercises the per-request RNG derivation that makes
// tokens independent of batch composition.
const sampleTemp = 0.8

// factory builds identical-weight models over any communicator width
// (local MoE on one rank, distributed MoE otherwise), as bagualu-serve
// does. Replicas use the FP32 wire so every served token can be checked
// against the single-rank reference decode.
func (s serveSpec) factory(seed uint64) func(c *mpi.Comm) *nn.GPT {
	return func(c *mpi.Comm) *nn.GPT {
		return nn.NewGPT(s.gpt, tensor.NewRNG(seed), func(_ int, name string, r *tensor.RNG) nn.Layer {
			if c.Size() == 1 {
				return moe.NewLocalMoE(name, r, s.gate, s.hidden)
			}
			m := moe.NewDistMoEComm(name, r, s.gate, s.hidden, c, moe.Hierarchical,
				moe.CommConfig{Codec: mpi.FP32Wire, Overlap: true})
			m.SimRate = serveFLOPS
			return m
		})
	}
}

// topo puts one serving world on its own supernode pair, two ranks per
// node.
func (s serveSpec) topo() *simnet.Topology {
	nodes := (s.ranks + 1) / 2
	return simnet.New(sunway.TestMachine(nodes, 1), 2)
}

func (s serveSpec) engineConfig(seed uint64) serve.Config {
	return serve.Config{
		Batching: serve.Continuous, MaxBatch: s.maxBatch, KVBudget: s.kvBudget,
		Temperature: sampleTemp, SampleSeed: seed,
		FLOPS: serveFLOPS, MemBWGiBs: serveMemBW,
	}
}

// traceSeed fixes each serving workload's arrival trace (arrival times,
// prompt and output lengths, tiers) and the fleet's fault schedule. Both
// are part of the workload, like a recorded production trace: near the
// fleet's knee, queueing amplifies any change of arrivals into a 30-40%
// swing of median latency, which no bound could tell from a regression.
// --seed draws what flows through that trace: weights, prompt tokens and
// sampling, which move routing and so per-step virtual time.
const traceSeed = 20220402

// stream draws the open-loop request stream: Poisson arrivals on the
// virtual clock, so the generator is never late (lateness is 0 by
// construction) and latency counts from the scheduled arrival.
func (s serveSpec) stream(seed uint64, n int) []serve.Request {
	reqs := serve.WorkloadConfig{
		Seed: traceSeed, Requests: n, RatePerSec: s.ratePerSec, Vocab: s.gpt.Vocab,
		PromptMin: s.promptMin, PromptMax: s.promptMax, NewMin: s.newMin, NewMax: s.newMax,
		Tiers: s.tiers,
	}.Generate()
	r := tensor.NewRNG(seed*0x9e3779b97f4a7c15 + 1)
	for i := range reqs {
		for j := range reqs[i].Prompt {
			reqs[i].Prompt[j] = r.Intn(s.gpt.Vocab)
		}
	}
	return reqs
}

// drain serves reqs closed-loop (all present at once) through one
// serve.Engine per rank of c and returns rank-local completions. Every
// rank of c must call it.
func drain(model *nn.GPT, c *mpi.Comm, cfg serve.Config, reqs []serve.Request, each func(e *serve.Engine, comps []serve.Completion)) {
	e := serve.NewEngine(model, c, cfg)
	for _, r := range reqs {
		r.Arrival = 0
		e.Offer(r)
	}
	for {
		// Lockstep exit: Step is collective, so ranks whose share
		// drained early keep stepping until everyone is done.
		left := c.AllReduce([]float32{float32(e.Pending())}, mpi.OpSum)
		if left[0] == 0 {
			return
		}
		e.Admit()
		comps := e.Step()
		if each != nil {
			each(e, comps)
		}
	}
}

// referenceDecode is the fault-free single-replica decode every served
// token sequence is compared with: one rank, local experts, same
// weights, same per-request sampling RNG.
func (s serveSpec) referenceDecode(seed uint64, reqs []serve.Request) map[int][]int {
	ref := make(map[int][]int, len(reqs))
	cfg := s.engineConfig(seed)
	// A wide batch only speeds the reference up: sampling RNGs derive
	// from request ids, so tokens do not depend on batch composition.
	cfg.MaxBatch, cfg.KVBudget = 256, 0
	mpi.NewWorld(1, nil).Run(func(c *mpi.Comm) {
		drain(s.factory(seed)(c), c, cfg, reqs, func(_ *serve.Engine, comps []serve.Completion) {
			for _, cp := range comps {
				ref[cp.Req.ID] = cp.Tokens
			}
		})
	})
	return ref
}

func sameTokens(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// latencyMetrics fills the serving latency numbers from the program's
// own histograms. A failed request misses both limits: the TTFT share's
// base is every request sent, the TPOT share's base the requests that
// have an inter-token gap (two or more output tokens) plus the failed.
func (s serveSpec) latencyMetrics(out *outcome, ttft, tpot *metrics.Histogram, sent int, trace bool) {
	out.e2e["sim_latency_p50_ms"] = histQuantile(ttft, 0.5) * 1e3
	out.info("ttft samples %d, tpot samples %d of %d requests sent; generator lateness 0 (virtual-clock arrivals)",
		ttft.Count(), tpot.Count(), sent)
	if !trace {
		return
	}
	out.layer["serve.sim_ttft_p50_ms"] = out.e2e["sim_latency_p50_ms"]
	out.layer["serve.sim_ttft_p99_ms"] = histQuantile(ttft, 0.99) * 1e3
	out.layer["serve.sim_tpot_p50_ms"] = histQuantile(tpot, 0.5) * 1e3
	out.layer["serve.sim_tpot_p99_ms"] = histQuantile(tpot, 0.99) * 1e3
	out.layer["serve.sim_slo_ttft_share"] = histShareBelow(ttft, s.sloTTFT, sent)
	out.layer["serve.sim_slo_tpot_share"] = histShareBelow(tpot, s.sloTPOT, int(tpot.Count())+out.failed)
}

// runFleet is serve_fleet_faults: fleet.Run over replicas x ranks with
// seeded replica crashes and one straggler.
func runFleet(ctx *runCtx, s serveSpec) *outcome {
	out := newOutcome()
	dir := filepath.Join(ctx.tmp, "fleet-ckpt")
	f := s.factory(ctx.seed)

	// Set-up runs once here, not setupReps times: the reference decode
	// costs as much host time as a whole fleet round, and at ~4 s one
	// sample is already steady.
	t0 := time.Now()
	sid := ctx.tr.begin("setup")
	var err error
	id := ctx.tr.begin("ckpt.SaveForInference")
	mpi.NewWorld(1, nil).Run(func(c *mpi.Comm) {
		err = ckpt.SaveForInference(dir, 0, f(c).Params())
	})
	ctx.tr.end(id, nil)
	if err != nil {
		out.fail("inference checkpoint: %v", err)
		return out
	}
	reqs := s.stream(ctx.seed, s.requests)
	id = ctx.tr.begin("reference decode")
	ref := s.referenceDecode(ctx.seed, reqs)
	ctx.tr.end(id, nil)
	ctx.tr.end(sid, nil)
	setup := time.Since(t0).Seconds()

	cfg := fleet.Config{
		Replicas: s.replicas, Ranks: s.ranks, Topo: s.topo(), NewModel: f,
		Engine: s.engineConfig(ctx.seed), Requests: reqs,
		Policy: fleet.FailoverHedge, CkptDir: dir, RestoreBWGiBs: serveMemBW,
		TierSLO: s.tierSLO, WindowPerRank: 2 * s.maxBatch,
		Faults: fault.Config{
			Seed: traceSeed, MTBFSteps: s.mtbfSteps, MaxCrashes: s.maxCrashes,
			Stragglers: s.stragglers, StragglerMult: 4,
		},
	}
	var first fleet.Result
	var hosts []float64
	start := time.Now()
	rounds := 0
	for ; ctx.another(rounds, start, hosts); rounds++ {
		tr := ctx.tr
		if ctx.trace && rounds == 0 {
			tr = nil // round 0 is the untraced twin the overhead is measured against
		}
		id := tr.begin("fleet.Run")
		t0 := time.Now()
		res, err := fleet.Run(cfg)
		hosts = append(hosts, time.Since(t0).Seconds())
		if err != nil {
			tr.end(id, nil)
			out.fail("fleet.Run: %v", err)
			return out
		}
		tr.end(id, map[string]float64{
			"sim_makespan_s": res.Makespan, "completed": float64(res.Completed), "crashes": float64(res.Crashes),
			"retries": float64(res.Retries), "hedges": float64(res.Hedges), "restores": float64(res.Restores),
		})
		if rounds == 0 {
			first = res
		} else if res.Fingerprint() != first.Fingerprint() {
			out.fail("rounds with identical inputs diverged:\n  %s\n  %s", first.Fingerprint(), res.Fingerprint())
		}
	}

	res := first
	out.attempted = res.Requests
	out.failed = res.Shed + res.Dropped + res.Rejected
	if res.Requests != len(reqs) || res.Requests != res.Completed+out.failed {
		out.fail("accounting leak: %d sent, %d completed + %d shed + %d dropped + %d rejected",
			len(reqs), res.Completed, res.Shed, res.Dropped, res.Rejected)
	}
	if res.ProbeMismatches != 0 {
		out.fail("%d warm-up probes decoded wrong tokens after a restore", res.ProbeMismatches)
	}
	prefill := 0
	byID := make(map[int]serve.Request, len(reqs))
	for _, r := range reqs {
		byID[r.ID] = r
	}
	wrong := 0
	for id, toks := range res.Tokens {
		prefill += len(byID[id].Prompt)
		if !sameTokens(toks, ref[id]) {
			wrong++
		}
	}
	if wrong > 0 || len(res.Tokens) != res.Completed {
		out.fail("%d of %d served sequences differ from the fault-free single-replica decode", wrong, len(res.Tokens))
	}
	d := newDigest()
	d.u64(res.Digest())
	d.f64(res.Makespan)
	out.digest = d.String()

	served := float64(prefill + res.OutputTokens)
	out.e2e["setup_s"] = setup
	out.e2e["host_tokens_per_s"] = served / fastest(hosts)
	out.e2e["sim_tokens_per_s"] = res.TokensPerSec()
	s.latencyMetrics(out, res.TTFT, res.TPOT, res.Requests, ctx.trace)
	out.info("rounds %d, requests %d, completed %d, shed %d, dropped %d, rejected %d, crashes %d, host s/round fastest %.2f p50 %.2f",
		rounds, res.Requests, res.Completed, res.Shed, res.Dropped, res.Rejected, res.Crashes, fastest(hosts), median(hosts))

	if ctx.trace {
		out.layer["trace.overhead_share"] = (hosts[1] - hosts[0]) / hosts[0]
		out.layer["serve.sim_goodput_rps"] = res.Goodput()
		out.layer["serve.prefill_tokens"] = float64(prefill)
		out.layer["serve.output_tokens"] = float64(res.OutputTokens)
		out.layer["fleet.retries"] = float64(res.Retries)
		out.layer["fleet.hedges"] = float64(res.Hedges)
		out.layer["fleet.hedge_win_share"] = float64(res.HedgeWins) / math.Max(1, float64(res.Hedges))
		out.layer["fleet.crashes"] = float64(res.Crashes)
		out.layer["fleet.restores"] = float64(res.Restores)
		out.layer["fleet.min_live"] = float64(res.MinLive)
		out.layer["fleet.sim_restore_s"] = res.RestoreSecs
		out.layer["fleet.sim_warmup_s"] = res.WarmupSecs
		out.layer["fleet.shed"] = float64(res.Shed)
		out.layer["fleet.dropped"] = float64(res.Dropped)
		out.layer["fleet.probe_mismatches"] = float64(res.ProbeMismatches)
	}
	return out
}

// runPrefill is serve_prefill_burst: serve.Run on one world, long
// prompts, few output tokens, no faults.
func runPrefill(ctx *runCtx, s serveSpec) *outcome {
	out := newOutcome()
	f := s.factory(ctx.seed)
	topo := s.topo()
	cfg := s.engineConfig(ctx.seed)
	reqs := s.stream(ctx.seed, s.requests)
	warm := s.stream(ctx.seed+1, s.warmupRequests)

	// serveOnce builds a world and its per-rank models, then (when
	// timed) serves reqs through serve.Run and returns the merged
	// result and rank 0's host seconds inside serve.Run.
	serveOnce := func(tr *tracer, reqs []serve.Request, closedLoop bool) (serve.Result, float64) {
		var merged serve.Result
		var host float64
		runRanks(mpi.NewWorld(s.ranks, topo), func(c *mpi.Comm, bar *hostBarrier) {
			model := f(c)
			bar.wait()
			if closedLoop {
				drain(model, c, cfg, serve.Partition(reqs, c.Rank(), c.Size()), nil)
				return
			}
			id := -1
			if c.Rank() == 0 {
				id = tr.begin("serve.Run")
			}
			t0 := time.Now()
			res := serve.Run(model, c, cfg, serve.Partition(reqs, c.Rank(), c.Size()))
			if c.Rank() == 0 {
				host = time.Since(t0).Seconds()
				tr.end(id, map[string]float64{"steps": float64(res.Steps), "sim_makespan_s": res.Makespan})
			}
			m := res.MergeAcross(c)
			if c.Rank() == 0 {
				merged = m
			}
		})
		return merged, host
	}

	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		sid := ctx.tr.begin("setup")
		serveOnce(nil, warm, true)
		ctx.tr.end(sid, nil)
		setups = append(setups, time.Since(t0).Seconds())
		runtime.GC()
	}

	var first serve.Result
	var hosts []float64
	start := time.Now()
	rounds := 0
	for ; ctx.another(rounds, start, hosts); rounds++ {
		tr := ctx.tr
		if ctx.trace && rounds == 0 {
			tr = nil
		}
		res, host := serveOnce(tr, reqs, false)
		hosts = append(hosts, host)
		if rounds == 0 {
			first = res
		} else if resultKey(res) != resultKey(first) {
			out.fail("rounds with identical inputs diverged:\n  %s\n  %s", resultKey(first), resultKey(res))
		}
	}

	res := first
	var wantPrefill, wantOut int
	for _, r := range reqs {
		wantPrefill += len(r.Prompt)
		wantOut += r.MaxNew
	}
	out.attempted = len(reqs)
	out.failed = len(reqs) - res.Completed
	if res.Completed+res.Rejected != len(reqs) {
		out.fail("accounting leak: %d sent, %d completed + %d rejected", len(reqs), res.Completed, res.Rejected)
	}
	if res.Rejected == 0 && (res.PrefillTokens != wantPrefill || res.OutputTokens != wantOut) {
		out.fail("served %d prompt + %d output tokens, the stream holds %d + %d", res.PrefillTokens, res.OutputTokens, wantPrefill, wantOut)
	}
	out.digest = func() string { d := newDigest(); d.h.Write([]byte(resultKey(res))); return d.String() }()

	out.e2e["setup_s"] = median(setups)
	out.e2e["host_tokens_per_s"] = float64(res.PrefillTokens+res.OutputTokens) / fastest(hosts)
	out.e2e["sim_tokens_per_s"] = res.Throughput()
	s.latencyMetrics(out, res.TTFT, res.TPOT, len(reqs), ctx.trace)
	out.info("rounds %d, requests %d, completed %d, rejected %d, engine steps %d, host s/round fastest %.2f p50 %.2f",
		rounds, len(reqs), res.Completed, res.Rejected, res.Steps, fastest(hosts), median(hosts))

	if ctx.trace {
		out.layer["trace.overhead_share"] = (hosts[1] - hosts[0]) / hosts[0]
		out.layer["serve.sim_goodput_rps"] = float64(res.Completed) / res.Makespan
		out.layer["serve.prefill_tokens"] = float64(res.PrefillTokens)
		out.layer["serve.output_tokens"] = float64(res.OutputTokens)
		out.layer["serve.peak_kv_tokens"] = float64(res.PeakKV)
		out.layer["serve.steps"] = float64(res.Steps)
	}
	return out
}

// resultKey renders every observable of a merged serve.Result.
func resultKey(r serve.Result) string {
	return fmt.Sprintf("done=%d rej=%d prefill=%d out=%d steps=%d kv=%d makespan=%.9f ttft=%v tpot=%v",
		r.Completed, r.Rejected, r.PrefillTokens, r.OutputTokens, r.Steps, r.PeakKV, r.Makespan,
		r.TTFT.Snapshot(), r.TPOT.Snapshot())
}

// calibrate prints the record the frozen rates and SLO limits in spec.go
// come from: for each serving workload, the unloaded fault-free median
// TTFT and TPOT (the SLO limits are 3x these) and the fault-free
// saturation goodput (the offered rates are a fraction of it).
func calibrate(ctx *runCtx, s specs) {
	ctx.trace = true // two rounds, and the per-layer latency numbers
	for _, c := range []struct {
		name string
		spec serveSpec
		run  func(*runCtx, serveSpec) *outcome
	}{{"serve_fleet_faults", s.fleet, runFleet}, {"serve_prefill_burst", s.prefill, runPrefill}} {
		quiet := c.spec
		quiet.mtbfSteps, quiet.stragglers, quiet.tierSLO = 0, 0, nil
		unloaded, saturated := quiet, quiet
		unloaded.ratePerSec, unloaded.requests = c.spec.ratePerSec/50, 300
		saturated.ratePerSec, saturated.requests = 1e6, 600
		u, sat := c.run(ctx, unloaded), c.run(ctx, saturated)
		fmt.Printf("%s: unloaded fault-free p50 TTFT %.4f s, TPOT %.4f s; fault-free saturation goodput %.3f req/sim-s; offered %.3f req/sim-s = %.2f of it\n",
			c.name, u.layer["serve.sim_ttft_p50_ms"]/1e3, u.layer["serve.sim_tpot_p50_ms"]/1e3,
			sat.layer["serve.sim_goodput_rps"], c.spec.ratePerSec, c.spec.ratePerSec/sat.layer["serve.sim_goodput_rps"])
		for _, o := range []*outcome{u, sat} {
			for _, p := range o.problems {
				fmt.Println("CHECK FAILED:", p)
			}
		}
	}
}
