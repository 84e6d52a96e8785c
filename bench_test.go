// Host-time benchmarks: the kernels, layers and the steady-state
// training step whose ns/op, allocs/op and GFLOPS the BENCH_N.json
// records cite. The R-tables of EXPERIMENTS.md are not here — each has
// one driver, its `bagualu exp <id>` registry entry (cmd/bagualu).
package bagualu_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"bagualu"
	"bagualu/internal/data"
	"bagualu/internal/half"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/parallel"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
	"bagualu/internal/train"
)

// BenchmarkGroupedExpertFFN compares the grouped expert kernel (one
// batched GEMM per layer over all expert row blocks) against the
// per-expert ForwardState/BackwardState loop it replaced, on a skewed
// dropless batch: one hot expert holds half the rows and the rest
// split the remainder. At d=hidden=64 every cold block is below the
// tiled threshold on its own, so the looped baseline pays the naive
// kernel per cold expert while the grouped call runs everything
// tiled.
func BenchmarkGroupedExpertFFN(b *testing.B) {
	const d, hidden = 64, 64
	for _, experts := range []int{8, 32} {
		rows := make([]int, experts)
		total := 16 * experts
		rows[0] = total / 2
		for e := 1; e < experts; e++ {
			rows[e] = (total - rows[0]) / (experts - 1)
		}
		off := make([]int, experts+1)
		for e, c := range rows {
			off[e+1] = off[e] + c
		}
		r := tensor.NewRNG(21)
		ffns := make([]*nn.FeedForward, experts)
		for e := range ffns {
			ffns[e] = nn.NewFeedForward(fmt.Sprintf("e%d", e), r, d, hidden)
		}
		x := tensor.Randn(r, 1, off[experts], d)
		dout := tensor.Randn(r, 1, off[experts], d)

		b.Run(fmt.Sprintf("grouped/E=%d", experts), func(b *testing.B) {
			eg := nn.NewExpertGroup(ffns)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, st := eg.Forward(x, off)
				eg.Backward(dout, st, nil)
				_ = out
			}
		})
		b.Run(fmt.Sprintf("looped/E=%d", experts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for e := range ffns {
					if rows[e] == 0 {
						continue
					}
					xe := x.RowsView(off[e], off[e+1])
					ye, st := ffns[e].ForwardState(xe)
					ffns[e].BackwardState(dout.RowsView(off[e], off[e+1]), st)
					_ = ye
				}
			}
		})
	}
}

// --- GEMM kernels: naive vs. tiled, square and remainder shapes ---
//
// The odd shapes (65×130×67) exercise the tiled kernel's row/column/
// panel remainder paths, which square power-of-two shapes never hit.
// Results are recorded in BENCH_1.json.

func gemmShapes() []struct {
	name    string
	m, k, n int
} {
	return []struct {
		name    string
		m, k, n int
	}{
		{"64x64x64", 64, 64, 64},
		{"65x130x67", 65, 130, 67},
		{"512x512x512", 512, 512, 512},
	}
}

func BenchmarkMatMul(b *testing.B) {
	for _, sh := range gemmShapes() {
		r := tensor.NewRNG(42)
		a := tensor.Uniform(r, -1, 1, sh.m, sh.k)
		bb := tensor.Uniform(r, -1, 1, sh.k, sh.n)
		kernels := []struct {
			name string
			f    func(x, y *tensor.Tensor) *tensor.Tensor
		}{
			{"naive", tensor.MatMulNaive},
			{"tiled", tensor.MatMulTiled},
			{"dispatch", tensor.MatMul},
		}
		for _, kn := range kernels {
			b.Run(fmt.Sprintf("%s/%s", kn.name, sh.name), func(b *testing.B) {
				b.ReportAllocs()
				flops := 2 * float64(sh.m) * float64(sh.k) * float64(sh.n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kn.f(a, bb)
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
			})
		}
	}
}

func BenchmarkMatMulTransB(b *testing.B) {
	for _, sh := range gemmShapes() {
		r := tensor.NewRNG(43)
		a := tensor.Uniform(r, -1, 1, sh.m, sh.k)
		bb := tensor.Uniform(r, -1, 1, sh.n, sh.k)
		b.Run("dispatch/"+sh.name, func(b *testing.B) {
			b.ReportAllocs()
			flops := 2 * float64(sh.m) * float64(sh.k) * float64(sh.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMulTransB(a, bb)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

// BenchmarkMatMulTransA measures the weight-gradient kernel xᵀ@dy at
// the four shapes the dense benchmark workload runs it at (512 token
// rows; attention, FFN-up and FFN-down weights) and one small one.
func BenchmarkMatMulTransA(b *testing.B) {
	for _, sh := range []struct{ k, m, n int }{
		{512, 128, 512}, {512, 512, 128}, {512, 128, 128}, {64, 64, 64},
	} {
		r := tensor.NewRNG(46)
		a := tensor.Uniform(r, -1, 1, sh.k, sh.m)
		bb := tensor.Uniform(r, -1, 1, sh.k, sh.n)
		b.Run(fmt.Sprintf("k%d_m%d_n%d", sh.k, sh.m, sh.n), func(b *testing.B) {
			flops := 2 * float64(sh.m) * float64(sh.k) * float64(sh.n)
			for i := 0; i < b.N; i++ {
				tensor.MatMulTransA(a, bb)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
		})
	}
}

// BenchmarkAxpy measures the one inner loop every GEMM variant with an
// outer reduction index shares, at the row widths the workloads use
// (a head, a model row, an FFN row) and one off a multiple of 8.
func BenchmarkAxpy(b *testing.B) {
	for _, n := range []int{16, 67, 128, 512} {
		r := tensor.NewRNG(44)
		x := tensor.Uniform(r, -1, 1, n).Data
		dst := tensor.Uniform(r, -1, 1, n).Data
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(8 * n)) // x read, dst read and written once
			for i := 0; i < b.N; i++ {
				tensor.Axpy(dst, x, 1e-3)
			}
		})
	}
}

// BenchmarkQuantizeSliceFast measures the FP16 round trip the mixed-
// precision trainer applies to every weight and gradient each step.
func BenchmarkQuantizeSliceFast(b *testing.B) {
	src := tensor.Uniform(tensor.NewRNG(45), -4, 4, 1<<14).Data
	x := make([]float32, len(src))
	b.SetBytes(int64(4 * len(x)))
	for i := 0; i < b.N; i++ {
		copy(x, src)
		half.QuantizeSliceFast(x)
	}
}

// perElem runs op b.N times after one untimed warm-up call and reports
// ns per element.
func perElem(b *testing.B, elems int, op func()) {
	op()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*elems), "ns/elem")
}

// The scalar sides of the three benchmarks below are the loops the
// vector transcendental kernels replaced (and still match bit for
// bit), written out here because the package exports no switch: one
// math.Tanh or math.Exp call per element.
func geluRef(x float32) float32 {
	const c = 0.7978845608028654
	xf := float64(x)
	return float32(0.5 * xf * (1 + math.Tanh(c*(xf+0.044715*xf*xf*xf))))
}

func geluGradRef(x float32) float32 {
	const c = 0.7978845608028654
	xf := float64(x)
	t := math.Tanh(c * (xf + 0.044715*xf*xf*xf))
	return float32(0.5*(1+t) + 0.5*xf*(1-t*t)*(c*(1+3*0.044715*xf*xf)))
}

func softmaxRowsRef(a *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(a.Shape...)
	for i := 0; i < a.Shape[0]; i++ {
		src, dst := a.Row(i), out.Row(i)
		m := src[0]
		for _, v := range src[1:] {
			if v > m {
				m = v
			}
		}
		var sum float64
		for j, v := range src {
			ev := math.Exp(float64(v - m))
			dst[j] = float32(ev)
			sum += ev
		}
		inv := float32(1 / sum)
		for j := range dst {
			dst[j] *= inv
		}
	}
	return out
}

// BenchmarkGELU and BenchmarkGELUGrad time the FFN activation and its
// derivative over 4096 pre-activations of the spread a trained FFN
// sees, so all three tanh branches are in play.
func BenchmarkGELU(b *testing.B) {
	x := tensor.Randn(tensor.NewRNG(46), 1.5, 4096)
	b.Run("kernel", func(b *testing.B) { perElem(b, x.Len(), func() { tensor.GELU(x) }) })
	b.Run("scalar", func(b *testing.B) { perElem(b, x.Len(), func() { applyRef(x, geluRef) }) })
}

func BenchmarkGELUGrad(b *testing.B) {
	x := tensor.Randn(tensor.NewRNG(47), 1.5, 4096)
	b.Run("kernel", func(b *testing.B) { perElem(b, x.Len(), func() { tensor.GELUGrad(x) }) })
	b.Run("scalar", func(b *testing.B) { perElem(b, x.Len(), func() { applyRef(x, geluGradRef) }) })
}

// applyRef returns f applied elementwise to x, one element at a time.
func applyRef(x *tensor.Tensor, f func(float32) float32) *tensor.Tensor {
	out := tensor.New(x.Shape...)
	for i, v := range x.Data {
		out.Data[i] = f(v)
	}
	return out
}

// BenchmarkSoftmaxRows times the row softmax (max, exp-and-sum, scale)
// on the shapes the workloads give it: one head's causally masked
// 64x64 score block as MultiHeadAttention.Forward builds it, a single
// 96-long decode row, and unmasked 128-wide rows.
func BenchmarkSoftmaxRows(b *testing.B) {
	r := tensor.NewRNG(48)
	masked := tensor.Randn(r, 1, 64, 64)
	for i := 0; i < 64; i++ {
		for j := i + 1; j < 64; j++ {
			masked.Data[i*64+j] = float32(math.Inf(-1))
		}
	}
	for _, c := range []struct {
		name string
		a    *tensor.Tensor
	}{
		{"causal64x64", masked},
		{"decode1x96", tensor.Randn(r, 1, 1, 96)},
		{"rows32x128", tensor.Randn(r, 1, 32, 128)},
	} {
		b.Run(c.name+"/kernel", func(b *testing.B) { perElem(b, c.a.Len(), func() { tensor.SoftmaxRows(c.a) }) })
		b.Run(c.name+"/scalar", func(b *testing.B) { perElem(b, c.a.Len(), func() { softmaxRowsRef(c.a) }) })
	}
}

// BenchmarkTrainStep measures the steady-state training step of a
// small MoE transformer — the hot loop the persistent worker pool and
// GEMM dispatch target — gated on allocs/op.
func BenchmarkTrainStep(b *testing.B) {
	r := tensor.NewRNG(17)
	model := nn.NewGPT(nn.GPTConfig{
		Vocab: 256, Dim: 64, Heads: 4, Layers: 2, SeqLen: 32, FFNHidden: 128,
	}, r, func(block int, name string, rr *tensor.RNG) nn.Layer {
		return moe.NewLocalMoE(name, rr, moe.GateConfig{
			Dim: 64, NumExperts: 4, TopK: 2, CapacityFactor: 1.5, AuxLossWeight: 0.01,
		}, 128)
	})
	corpus, err := data.NewSynthetic(data.CorpusConfig{
		Vocab: 256, SeqLen: 32, Zipf: 1, Determinism: 0.9, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := train.NewTrainer(model, corpus, train.NewAdam(0), train.Config{
		Batch: 8, Precision: sunway.FP32, Schedule: train.ConstantLR(1e-3), ClipNorm: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Allocation regression gate: 3170 allocs/op at -cpu 1 and 3190 at
	// -cpu 2, plus 5%. Every tensor is a plain allocation, as it is on
	// the multi-rank engine and serving paths; the process-global step
	// arena that recycled this benchmark's activations (2316 allocs and
	// 110 KB/op, now 10.8 MB/op) is gone. Its end-to-end worth, measured
	// on train_dense_1rank over 10 alternating pairs of 14 s runs on
	// 2 vCPU (medians): without it peak RSS falls 113 -> 79 MB, host
	// tokens/s moves -1.7% (7293 -> 7167) and setup_s +17% (0.158 ->
	// 0.184 s: the heap re-grows after each set-up's forced GC). The
	// MoE blocks are one-rank DistMoE layers, whose self-copy exchanges
	// bring the step to about 3,300 allocs/op (2 vCPU), under the gate.
	gatedLoop(b, "train step", 3190, func() { tr.Step() })
}

// BenchmarkPipelineStep measures one engine step of the pipelined
// benchmark workload's layout (train_pp4_zero: pp4 × dp2, two virtual
// stages, eight micro-batches, ZeRO) at the tiny model size, every
// rank's allocations counted: 55.1 k per step (55,048 at -cpu 1 and
// 55,052 at -cpu 2, one kernel call per parameter range of the sharded
// Adam update included; the gate read 57.4 k before, 73.1 k when the
// backward replayed every chunk's forward), gated at that plus 5%.
func BenchmarkPipelineStep(b *testing.B) {
	engineStepLoop(b, "pipelined engine step", 55100,
		parallel.Strategy{DataParallel: 2, ExpertParallel: 1, Pipeline: 4, Virtual: 2},
		sunway.TestMachine(2, 2), 2,
		parallel.ModelConfig{
			GPT:        nn.GPTConfig{Vocab: 64, Dim: 16, Heads: 2, Layers: 8, SeqLen: 8, FFNHidden: 32},
			NumExperts: 2, TopK: 1, AuxLossWeight: 0.01, MoEHidden: 32, MoEEvery: 2, MoESimFLOPS: 1e9,
		},
		train.Config{Batch: 1, Precision: sunway.FP32, Schedule: train.ConstantLR(1e-2), ClipNorm: 1, Accum: 8},
		1, func() train.Optimizer { return train.NewShardedAdam(0) })
}

// BenchmarkEngineStep measures one engine step of the MoDa benchmark
// workload's layout (train_moe_ep8: dp2 × ep4 over four one-node
// supernodes, Mixed precision, FP16 wire with overlap) at the tiny model
// size, every rank's allocations counted: 13.5 k per step (13,471 at
// -cpu 1 and 13,484–13,508 at -cpu 2 once the all-reduce reduced the
// gradient bucket in place; 16.4 k before), gated at that plus 5%.
func BenchmarkEngineStep(b *testing.B) {
	engineStepLoop(b, "flat engine step", 13510,
		parallel.Strategy{DataParallel: 2, ExpertParallel: 4},
		sunway.TestMachine(4, 1), 2,
		parallel.ModelConfig{
			GPT:        nn.GPTConfig{Vocab: 64, Dim: 16, Heads: 2, Layers: 2, SeqLen: 8, FFNHidden: 32},
			NumExperts: 16, TopK: 2, AuxLossWeight: 0.01, MoEHidden: 32, MoEEvery: 1, MoESimFLOPS: 1e9,
			Algo: moe.Auto, Comm: moe.CommConfig{Codec: mpi.FP16Wire, Overlap: true},
		},
		train.Config{Batch: 2, Precision: sunway.Mixed, Schedule: train.ConstantLR(1e-2), ClipNorm: 1},
		1.2, func() train.Optimizer { return train.NewAdam(0) })
}

// engineStepLoop runs gatedLoop over one parallel.Engine step of strat
// on every rank of a world on machine, at a compute rate of 1 GFLOP/s
// per rank; zipf shapes the synthetic corpus.
func engineStepLoop(b *testing.B, what string, baseline float64, strat parallel.Strategy, machine *sunway.Machine,
	ranksPerNode int, mc parallel.ModelConfig, tc train.Config, zipf float64, opt func() train.Optimizer) {
	cc := data.CorpusConfig{Vocab: mc.GPT.Vocab, SeqLen: mc.GPT.SeqLen, Zipf: zipf, Determinism: 0.85, Seed: 17}
	ranks := strat.Size()
	start := make([]chan bool, ranks)
	for r := range start {
		start[r] = make(chan bool)
	}
	done := make(chan error, ranks)
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		mpi.NewWorld(ranks, simnet.New(machine, ranksPerNode)).Run(func(c *mpi.Comm) {
			e, err := parallel.NewEngine(c, strat, mc, cc, tc, opt(), 1)
			if err == nil {
				e.SetComputeRate(1e9)
			}
			for <-start[c.Rank()] {
				if err == nil {
					e.Step()
				}
				done <- err
			}
		})
	}()
	defer func() {
		for _, s := range start {
			s <- false
		}
		<-exited
	}()
	gatedLoop(b, what, baseline, func() {
		for _, s := range start {
			s <- true
		}
		for range start {
			if err := <-done; err != nil {
				b.Fatal(err)
			}
		}
	})
}

// gatedLoop is a benchmark's timed loop with an allocation regression
// gate: after one untimed warm-up call (optimizer state, pools) it
// runs step b.N times and fails the benchmark if that took more than
// baseline allocations per call plus 5%.
func gatedLoop(b *testing.B, what string, baseline float64, step func()) {
	step()
	b.ReportAllocs()
	b.ResetTimer()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < b.N; i++ {
		step()
	}
	runtime.ReadMemStats(&ms1)
	const slack = 1.05
	if avg := float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N); avg > baseline*slack {
		b.Fatalf("%s allocates %.0f objects/op, above the gate %.0f (baseline %.0f +5%%)",
			what, avg, baseline*slack, baseline)
	}
}

// BenchmarkInferStep measures the serving forward pass at the prefill
// benchmark workload's model shape: one 64-row prefill into an empty
// cache, and one single-row decode step over a 96-token context. The
// cache is rewound between iterations, so allocs/op is the step's own
// and is gated like BenchmarkTrainStep's.
func BenchmarkInferStep(b *testing.B) {
	model := nn.NewGPT(nn.GPTConfig{
		Vocab: 64, Dim: 64, Heads: 4, Layers: 2, SeqLen: 104, FFNHidden: 128,
	}, tensor.NewRNG(18), nil)
	r := tensor.NewRNG(19)
	tokens := make([]int, 96)
	for i := range tokens {
		tokens[i] = r.Intn(64)
	}
	for _, c := range []struct {
		name          string
		context, rows int
	}{
		{"prefill64", 0, 64},
		{"decode1_ctx96", 96, 1},
	} {
		b.Run(c.name, func(b *testing.B) {
			cache := model.NewKVCache()
			if c.context > 0 {
				model.InferStep(tokens[:c.context], []nn.InferRun{{Cache: cache, Rows: c.context}})
			}
			// 142 allocs/op measured for either shape: the count follows
			// the layer calls, not the rows.
			gatedLoop(b, "infer step", 142, func() {
				model.InferStep(tokens[:c.rows], []nn.InferRun{{Cache: cache, Rows: c.rows}})
				cache.Len = c.context
			})
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*c.rows), "us/tok")
		})
	}
}

// --- Facade sanity ---

func BenchmarkFacadeTrainStep(b *testing.B) {
	r := bagualu.NewRNG(1)
	model := bagualu.NewGPT(bagualu.GPTConfig{
		Vocab: 64, Dim: 32, Heads: 4, Layers: 1, SeqLen: 16, FFNHidden: 64,
	}, r, nil)
	corpus, err := bagualu.NewCorpus(bagualu.CorpusConfig{Vocab: 64, SeqLen: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := bagualu.NewTrainer(model, corpus, bagualu.NewAdam(0), bagualu.TrainConfig{
		Batch: 4, Precision: bagualu.FP32, Schedule: bagualu.ConstantLR(1e-3),
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step()
	}
}
