package serve

import (
	"fmt"
	"testing"

	"bagualu/internal/ckpt"
	"bagualu/internal/data"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
	"bagualu/internal/train"
)

func gateCfg(d, e, k int) moe.GateConfig {
	return moe.GateConfig{Dim: d, NumExperts: e, TopK: k, CapacityFactor: 2}
}

// localServeModel is a single-rank GPT with local-MoE FFNs, context
// long enough for the test workloads.
func localServeModel(seed uint64) *nn.GPT {
	cfg := nn.GPTConfig{Vocab: 32, Dim: 16, Heads: 4, Layers: 2, SeqLen: 24, FFNHidden: 32}
	return nn.NewGPT(cfg, tensor.NewRNG(seed), func(_ int, name string, r *tensor.RNG) nn.Layer {
		return moe.NewLocalMoE(name, r, gateCfg(cfg.Dim, 4, 2), 32)
	})
}

func testWorkload(seed uint64, n int, rate float64) []Request {
	return WorkloadConfig{
		Seed: seed, Requests: n, RatePerSec: rate, Vocab: 32,
		PromptMin: 4, PromptMax: 8, NewMin: 4, NewMax: 8,
	}.Generate()
}

// runLocal serves one workload on a fresh single-rank world.
func runLocal(seed uint64, cfg Config, reqs []Request) Result {
	var res Result
	w := mpi.NewWorld(1, nil)
	w.Run(func(c *mpi.Comm) {
		res = Run(localServeModel(seed), c, cfg, reqs)
	})
	return res
}

// The acceptance property: at an offered load that saturates
// one-request-at-a-time serving, continuous batching must sustain at
// least 2x the throughput without a worse p99 end-to-end latency —
// the weight stream is paid once per step instead of once per token.
func TestContinuousBeatsSerial(t *testing.T) {
	reqs := testWorkload(6, 24, 50)
	cfg := Config{MemBWGiBs: 1e-3, FLOPS: 1e9}

	cfg.Batching = Serial
	serial := runLocal(1, cfg, reqs)
	cfg.Batching = Continuous
	cont := runLocal(1, cfg, reqs)

	if serial.Completed != len(reqs) || cont.Completed != len(reqs) {
		t.Fatalf("completions %d/%d of %d", serial.Completed, cont.Completed, len(reqs))
	}
	if cont.Throughput() < 2*serial.Throughput() {
		t.Fatalf("continuous %.1f tok/s < 2x serial %.1f tok/s", cont.Throughput(), serial.Throughput())
	}
	if cp, sp := cont.E2E.Quantile(0.99), serial.E2E.Quantile(0.99); cp > sp {
		t.Fatalf("continuous p99 e2e %.3fs worse than serial %.3fs", cp, sp)
	}
	if cont.Steps >= serial.Steps {
		t.Fatalf("continuous took %d steps, serial %d — batching didn't batch", cont.Steps, serial.Steps)
	}
}

// Static batching sits between the two: better than serial (it
// amortizes within a batch) but worse than join-at-step under
// staggered arrivals.
func TestStaticBatchingBetween(t *testing.T) {
	reqs := testWorkload(6, 24, 50)
	cfg := Config{MemBWGiBs: 1e-3, FLOPS: 1e9, MaxBatch: 8}

	cfg.Batching = Serial
	serial := runLocal(1, cfg, reqs)
	cfg.Batching = Static
	static := runLocal(1, cfg, reqs)
	cfg.Batching = Continuous
	cont := runLocal(1, cfg, reqs)
	if static.Throughput() <= serial.Throughput() {
		t.Fatalf("static %.1f tok/s not above serial %.1f", static.Throughput(), serial.Throughput())
	}
	if cont.Throughput() <= static.Throughput() {
		t.Fatalf("continuous %.1f tok/s not above static %.1f", cont.Throughput(), static.Throughput())
	}
}

// The KV budgeter must bound resident cache rows; the queue absorbs
// the excess and everything still completes.
func TestKVBudgetBoundsInflight(t *testing.T) {
	reqs := testWorkload(9, 20, 20)
	cfg := Config{Batching: Continuous, KVBudget: 40, MemBWGiBs: 1e-3}
	res := runLocal(2, cfg, reqs)
	if res.PeakKV > 40 {
		t.Fatalf("peak KV %d exceeds budget 40", res.PeakKV)
	}
	if res.Completed != len(reqs) || res.Rejected != 0 {
		t.Fatalf("completed %d rejected %d of %d", res.Completed, res.Rejected, len(reqs))
	}
}

// Backpressure: a bounded queue under overload rejects instead of
// queueing unboundedly, and an SLO deadline sheds what waited too
// long. Every request is accounted exactly once.
func TestBackpressureAndSLOReject(t *testing.T) {
	reqs := testWorkload(12, 30, 50)
	cfg := Config{Batching: Serial, QueueCap: 2, MemBWGiBs: 1e-4}
	res := runLocal(3, cfg, reqs)
	if res.Rejected == 0 {
		t.Fatal("overloaded bounded queue rejected nothing")
	}
	if res.Completed+res.Rejected != len(reqs) {
		t.Fatalf("completed %d + rejected %d != %d", res.Completed, res.Rejected, len(reqs))
	}

	slo := Config{Batching: Serial, SLOQueueWait: 0.05, MemBWGiBs: 1e-4}
	sres := runLocal(3, slo, reqs)
	if sres.Rejected == 0 {
		t.Fatal("SLO deadline shed nothing under overload")
	}
	if sres.Completed+sres.Rejected != len(reqs) {
		t.Fatalf("SLO: completed %d + rejected %d != %d", sres.Completed, sres.Rejected, len(reqs))
	}
}

// distServe runs a 4-rank expert-parallel serving world (2 supernodes
// x 2 nodes) and returns the merged world result.
func distServe(codec mpi.Codec, load float64, batching Batching) Result {
	var merged Result
	topo := simnet.New(sunway.TestMachine(2, 2), 1)
	w := mpi.NewWorld(4, topo)
	all := WorkloadConfig{
		Seed: 31, Requests: 48, RatePerSec: load, Vocab: 32,
		PromptMin: 4, PromptMax: 8, NewMin: 4, NewMax: 8,
	}.Generate()
	w.Run(func(c *mpi.Comm) {
		cfg := nn.GPTConfig{Vocab: 32, Dim: 16, Heads: 4, Layers: 2, SeqLen: 24, FFNHidden: 32}
		model := nn.NewGPT(cfg, tensor.NewRNG(5), func(_ int, name string, r *tensor.RNG) nn.Layer {
			m := moe.NewDistMoEComm(name, r, gateCfg(cfg.Dim, 8, 2), 32, c, moe.Hierarchical,
				moe.CommConfig{Codec: codec, Overlap: true})
			m.SimRate = 1e9
			return m
		})
		scfg := Config{Batching: batching, MemBWGiBs: 1e-3, FLOPS: 1e9}
		res := Run(model, c, scfg, Partition(all, c.Rank(), c.Size()))
		m := res.MergeAcross(c) // collective: every rank participates
		if c.Rank() == 0 {
			merged = m
		}
	})
	return merged
}

func resultKey(r Result) string {
	return fmt.Sprintf("c=%d rej=%d pt=%d ot=%d steps=%d kv=%d mk=%.9g ttft=%.9g/%.9g tpot=%.9g/%.9g e2e=%.9g/%.9g",
		r.Completed, r.Rejected, r.PrefillTokens, r.OutputTokens, r.Steps, r.PeakKV, r.Makespan,
		r.TTFT.Quantile(0.5), r.TTFT.Quantile(0.99),
		r.TPOT.Quantile(0.5), r.TPOT.Quantile(0.99),
		r.E2E.Quantile(0.5), r.E2E.Quantile(0.99))
}

// Seeded replay: the full distributed serving run — fp16 wire,
// overlapped dispatch, continuous batching — must reproduce exactly,
// run after run. verify.sh drives this with -count=2 as the R13
// determinism gate.
func TestServeDeterministicReplay(t *testing.T) {
	a := distServe(mpi.FP16Wire, 100, Continuous)
	b := distServe(mpi.FP16Wire, 100, Continuous)
	if ka, kb := resultKey(a), resultKey(b); ka != kb {
		t.Fatalf("replay diverged:\n  %s\n  %s", ka, kb)
	}
	if a.Completed != 48 {
		t.Fatalf("completed %d of 48", a.Completed)
	}
	if a.OutputTokens <= 0 || a.Makespan <= 0 {
		t.Fatalf("degenerate result %+v", a)
	}
}

// The distributed engine must also hold the batching win end to end,
// with some ranks' streams draining before others (zero-row steps).
func TestDistContinuousBeatsSerial(t *testing.T) {
	serial := distServe(mpi.FP16Wire, 100, Serial)
	cont := distServe(mpi.FP16Wire, 100, Continuous)
	if cont.Completed != serial.Completed {
		t.Fatalf("completions differ: %d vs %d", cont.Completed, serial.Completed)
	}
	if cont.Throughput() < 2*serial.Throughput() {
		t.Fatalf("dist continuous %.1f tok/s < 2x serial %.1f tok/s", cont.Throughput(), serial.Throughput())
	}
}

// Serving from a PR 3 sharded checkpoint: weights exported by a
// trainer restore by name into a fresh inference process, and greedy
// generation through the restored engine matches the source model
// token for token.
func TestServeFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := nn.GPTConfig{Vocab: 32, Dim: 16, Heads: 2, Layers: 1, SeqLen: 8, FFNHidden: 32}
	model := nn.NewGPT(cfg, tensor.NewRNG(11), nil)
	corpus, err := data.NewSynthetic(data.CorpusConfig{
		Vocab: 32, SeqLen: 8, Zipf: 0.5, Determinism: 0.9, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := train.NewTrainer(model, corpus, train.NewAdam(0.01), train.Config{
		Batch: 4, Schedule: train.ConstantLR(3e-3), ClipNorm: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tr.Step()
	}
	w := mpi.NewWorld(1, nil)
	w.Run(func(c *mpi.Comm) {
		wr := ckpt.NewWriter(ckpt.Config{Dir: dir}, c)
		if err := wr.Save(5, tr.CheckpointHeader(), tr.Params(), ckpt.Layout{WorldSize: 1, DataParallel: 1, ExpertParallel: 1}); err != nil {
			t.Error(err)
		}
		if err := wr.WaitIdle(); err != nil {
			t.Error(err)
		}
	})

	restored := nn.NewGPT(cfg, tensor.NewRNG(999), nil)
	if _, hdr, err := ckpt.LoadForInference(dir, restored.Params()); err != nil {
		t.Fatal(err)
	} else if hdr.Step != 5 {
		t.Fatalf("header step %d", hdr.Step)
	}
	prompt := []int{3, 1, 4}
	want := model.GenerateKV(prompt, 5, 0, nil)
	got := restored.GenerateKV(prompt, 5, 0, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restored generation diverges at %d: %v vs %v", i, got, want)
		}
	}
}

// Workload generation is seed-deterministic and Poisson-shaped.
func TestWorkloadDeterministic(t *testing.T) {
	a := testWorkload(77, 50, 5)
	b := testWorkload(77, 50, 5)
	for i := range a {
		if a[i].Arrival != b[i].Arrival || a[i].MaxNew != b[i].MaxNew || len(a[i].Prompt) != len(b[i].Prompt) {
			t.Fatalf("workload replay diverged at %d", i)
		}
	}
	if a[len(a)-1].Arrival <= a[0].Arrival {
		t.Fatal("arrivals not increasing")
	}
}
