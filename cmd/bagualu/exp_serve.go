package main

import (
	"cmp"
	"fmt"
	"os"

	"bagualu/internal/ckpt"
	"bagualu/internal/fault"
	"bagualu/internal/metrics"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/serve"
	"bagualu/internal/serve/fleet"
	"bagualu/internal/simnet"
	"bagualu/internal/tensor"
)

const (
	serveFLOPS = 1e9  // virtual FLOP/s per rank
	serveMemBW = 1e-3 // weight-streaming bandwidth (GiB/s)
)

// serveSetup is what R13 and R18 share: the 16-rank world over 2
// supernodes, the model and gate shape, and the workload seed.
type serveSetup struct {
	ranks int
	topo  *simnet.Topology
	seed  uint64
	gate  moe.GateConfig
	gpt   nn.GPTConfig
}

func newServeSetup(o *options) serveSetup {
	m, d := o.machine, o.model
	if d.experts%m.ranks != 0 {
		check(fmt.Errorf("experts (%d) must divide by ranks (%d)", d.experts, m.ranks))
	}
	return serveSetup{
		ranks: m.ranks, topo: m.topo(), seed: o.seed,
		gate: moe.GateConfig{Dim: d.dim, NumExperts: d.experts, TopK: d.topk, CapacityFactor: 2},
		gpt:  nn.GPTConfig{Vocab: d.vocab, Dim: d.dim, Heads: d.heads, Layers: d.layers, SeqLen: d.seq, FFNHidden: d.hidden},
	}
}

// workload is the seeded Poisson request stream at rate requests/s.
func (s serveSetup) workload(o *options, rate float64, tiers []float64) []serve.Request {
	return serve.WorkloadConfig{
		Seed: s.seed, Requests: o.requests, RatePerSec: rate, Vocab: s.gpt.Vocab,
		PromptMin: 4, PromptMax: s.gpt.SeqLen / 3, NewMin: 4, NewMax: s.gpt.SeqLen / 3,
		Tiers: tiers,
	}.Generate()
}

// model builds one rank's replica of the served model.
func (s serveSetup) model(c *mpi.Comm, codec mpi.Codec) *nn.GPT {
	return nn.NewGPT(s.gpt, tensor.NewRNG(s.seed), func(_ int, name string, r *tensor.RNG) nn.Layer {
		m := moe.NewDistMoEComm(name, r, s.gate, s.gpt.FFNHidden, c, moe.Hierarchical,
			moe.CommConfig{Codec: codec, Overlap: true})
		m.SimRate = serveFLOPS
		return m
	})
}

// expR13: distributed MoE serving throughput versus offered load,
// comparing continuous batching against static batches and
// one-request-at-a-time serving, and the FP16 versus FP32 wire codec,
// with p50/p99 TTFT, TPOT, and end-to-end latency on the virtual
// clock.
func expR13(o *options) []*metrics.Table {
	const baseRate = 40 // offered load at load factor 1.0 (requests/s)
	s := newServeSetup(o)
	cols := []string{"load-factor", "batching", "codec", "tok/s",
		"ttft-p50", "ttft-p99", "tpot-p50", "tpot-p99", "e2e-p50", "e2e-p99",
		"completed", "rejected", "interSN-MB"}
	// One serving measurement: fresh world, same seeds, merged result
	// plus the inter-supernode wire bytes the run moved.
	measure := func(t *metrics.Table, load float64, batching serve.Batching, codec mpi.Codec) {
		all := s.workload(o, load*baseRate, nil)
		var r serve.Result
		w := onWorld(s.ranks, s.topo, func(c *mpi.Comm) {
			model := s.model(c, codec)
			if o.ckptDir != "" {
				_, _, err := ckpt.LoadForInference(o.ckptDir, model.Params())
				check(err)
			}
			cfg := serve.Config{
				Batching: batching, KVBudget: o.kvBudget,
				QueueCap: o.queueCap, SLOQueueWait: o.sloWait,
				FLOPS: serveFLOPS, MemBWGiBs: serveMemBW,
			}
			res := serve.Run(model, c, cfg, serve.Partition(all, c.Rank(), c.Size()))
			merged := res.MergeAcross(c) // collective: every rank participates
			if c.Rank() == 0 {
				r = merged
			}
		})
		t.AddRow(load, batching.String(), codec.String(),
			r.Throughput(),
			r.TTFT.Quantile(0.5), r.TTFT.Quantile(0.99),
			r.TPOT.Quantile(0.5), r.TPOT.Quantile(0.99),
			r.E2E.Quantile(0.5), r.E2E.Quantile(0.99),
			r.Completed, r.Rejected, float64(w.Stats().Snapshot().Bytes[simnet.MachineLevel])/(1<<20))
	}

	r13 := metrics.NewTable("R13: serving throughput vs offered load (fp16 wire)", cols...)
	for _, load := range []float64{0.5, 1, 2, 4} {
		for _, b := range []serve.Batching{serve.Serial, serve.Static, serve.Continuous} {
			measure(r13, load, b, mpi.FP16Wire)
		}
	}
	r13b := metrics.NewTable("R13b: wire codec at load factor 2 (continuous batching)", cols...)
	for _, codec := range []mpi.Codec{mpi.FP32Wire, mpi.FP16Wire} {
		measure(r13b, 2, serve.Continuous, codec)
	}
	return []*metrics.Table{r13, r13b}
}

// expR18: goodput and tail latency of a fault-tolerant serving fleet
// (health-routed replicas, checkpoint restore, hedged retries) under
// replica crashes, sweeping MTBF x failover policy. Replicas use the
// FP32 wire codec so the bit-exactness contract (every served token
// equals the fault-free reference decode) holds independent of the
// R13b codec comparison.
func expR18(o *options) []*metrics.Table {
	const (
		replicas   = 4
		fleetRanks = 2   // expert-parallel ranks per replica
		mtbf       = 30  // tightest replica-crash MTBF in steps (swept x1, x2, x4)
		hedgeP99   = 1.5 // hedge once age exceeds this x online p99
		// Offered load (requests/s), kept near fleet capacity so the
		// run is arrival-dominated.
		fleetRate = 4
		// Bounded batches: crash/hedge/health decisions all live at
		// step boundaries, so an unlimited batch (the R13 default)
		// would collapse each replica's run into a handful of giant
		// steps.
		fleetBatch = 4
	)
	s := newServeSetup(o)
	if s.gate.NumExperts%fleetRanks != 0 {
		check(fmt.Errorf("experts (%d) must divide by the %d ranks of a replica", s.gate.NumExperts, fleetRanks))
	}
	factory := func(c *mpi.Comm) *nn.GPT { return s.model(c, mpi.FP32Wire) }
	fleetCkpt := o.ckptDir
	if fleetCkpt == "" {
		// No training checkpoint given: snapshot the seeded init so
		// restored replicas have weights to reload.
		fleetCkpt = must(os.MkdirTemp("", "bagualu-fleet-ckpt"))
		defer os.RemoveAll(fleetCkpt)
		onWorld(1, nil, func(c *mpi.Comm) {
			check(ckpt.SaveForInference(fleetCkpt, 0, factory(c).Params()))
		})
	}
	reqs := s.workload(o, fleetRate, []float64{1, 2, 1}) // latency-sensitive / standard / batch
	r18 := metrics.NewTable("R18: fleet goodput under replica faults (MTBF x policy, fp32 wire)",
		"mtbf-steps", "policy", "goodput", "tok/s",
		"completed", "shed", "dropped", "rejected",
		"retries", "hedges", "hedge-wins", "crashes", "restores", "min-live",
		"ttft-p99", "tpot-p99", "probe-mismatch")
	for _, m := range []int{mtbf, mtbf * 2, mtbf * 4} {
		for _, pol := range []fleet.Policy{fleet.NoFailover, fleet.Failover, fleet.FailoverHedge} {
			res := must(fleet.Run(fleet.Config{
				Replicas: replicas,
				Ranks:    fleetRanks,
				Topo:     s.topo,
				NewModel: factory,
				Engine: serve.Config{
					Batching: serve.Continuous, MaxBatch: fleetBatch, KVBudget: cmp.Or(o.kvBudget, 64),
					Temperature: 0.8, SampleSeed: s.seed,
					FLOPS: serveFLOPS, MemBWGiBs: serveMemBW,
				},
				Requests:      reqs,
				Policy:        pol,
				CkptDir:       fleetCkpt,
				RestoreBWGiBs: serveMemBW,
				TierSLO:       []float64{5, 10, 20},
				HedgeP99:      hedgeP99,
				WindowPerRank: 2 * fleetBatch, // excess waits at the router, where SLO shedding applies
				Faults: fault.Config{
					Seed: s.seed, MTBFSteps: float64(m), MaxCrashes: replicas - 1,
					Stragglers: 1, StragglerMult: 4,
				},
			}))
			r18.AddRow(m, pol.String(), res.Goodput(), res.TokensPerSec(),
				res.Completed, res.Shed, res.Dropped, res.Rejected,
				res.Retries, res.Hedges, res.HedgeWins, res.Crashes, res.Restores, res.MinLive,
				res.TTFT.Quantile(0.99), res.TPOT.Quantile(0.99),
				res.ProbeMismatches)
		}
	}
	return []*metrics.Table{r18}
}
