// Benchmark harness: one benchmark per reconstructed experiment
// (R1–R10). See DESIGN.md for the experiment index and EXPERIMENTS.md
// for recorded results. Derived quantities (virtual seconds, EFLOPS,
// imbalance ratios) are attached via b.ReportMetric so
// `go test -bench=. -benchmem` regenerates every table and figure.
package bagualu_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"bagualu"
	"bagualu/internal/data"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/parallel"
	"bagualu/internal/perfmodel"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
	"bagualu/internal/train"
)

// --- R1: model configuration table ---

func BenchmarkR1ModelConfigs(b *testing.B) {
	for _, spec := range perfmodel.BrainScaleSpecs() {
		b.Run(spec.Name, func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				total = spec.TotalParams()
			}
			b.ReportMetric(float64(total)/1e12, "Tparams")
			b.ReportMetric(float64(spec.ActiveParamsPerToken())/1e9, "Bactive/token")
		})
	}
}

// --- Shared engine runner for R2/R3/R9 ---

func runEngineBench(b *testing.B, ranks, batch, experts int, algo moe.A2AAlgo) (simPerStep float64, tm moe.Timing) {
	b.Helper()
	strat := parallel.Strategy{DataParallel: 1, ExpertParallel: ranks}
	if ranks >= 4 {
		strat = parallel.Strategy{DataParallel: 2, ExpertParallel: ranks / 2}
	}
	nodes := (ranks + 1) / 2
	sns := (nodes + 1) / 2
	if sns < 1 {
		sns = 1
	}
	machine := sunway.TestMachine(sns, 2)
	topo := simnet.New(machine, 2)
	mc := parallel.ModelConfig{
		GPT:        nn.GPTConfig{Vocab: 128, Dim: 32, Heads: 2, Layers: 2, SeqLen: 16, FFNHidden: 64},
		NumExperts: experts, TopK: 2, CapacityFactor: 1.5, AuxLossWeight: 0.01,
		MoEHidden: 64, MoEEvery: 1, Algo: algo,
	}
	cc := data.CorpusConfig{Vocab: 128, SeqLen: 16, Zipf: 1, Determinism: 0.85, Seed: 9}
	tc := train.Config{Batch: batch, Precision: sunway.FP32, Schedule: train.ConstantLR(1e-3), ClipNorm: 1}

	w := mpi.NewWorld(ranks, topo)
	var sim float64
	var timing moe.Timing
	w.Run(func(c *mpi.Comm) {
		e, err := parallel.NewEngine(c, strat, mc, cc, tc, train.NewAdam(0), 5)
		if err != nil {
			panic(err)
		}
		e.SetComputeRate(machine.NodeFlops(sunway.FP32) * 0.3 / 2)
		for i := 0; i < b.N; i++ {
			st := e.Step()
			if c.Rank() == 0 {
				sim += st.SimTime
				timing.Gate += st.MoE.Gate
				timing.Dispatch += st.MoE.Dispatch
				timing.Expert += st.MoE.Expert
				timing.Combine += st.MoE.Combine
			}
		}
	})
	return sim / float64(b.N), timing
}

// --- R2: weak scaling (batch/rank fixed, experts ∝ ranks) ---

func BenchmarkR2WeakScaling(b *testing.B) {
	for _, ranks := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			sim, _ := runEngineBench(b, ranks, 4, 2*ranks, moe.Auto)
			b.ReportMetric(sim, "simsec/step")
			b.ReportMetric(float64(ranks*4*16)/sim, "tokens/simsec")
		})
	}
}

// --- R3: strong scaling (global batch fixed) ---

func BenchmarkR3StrongScaling(b *testing.B) {
	const globalBatch = 32
	for _, ranks := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			sim, _ := runEngineBench(b, ranks, globalBatch/ranks, 16, moe.Auto)
			b.ReportMetric(sim, "simsec/step")
		})
	}
}

// --- R4: all-to-all micro-benchmark ---

func BenchmarkR4AllToAll(b *testing.B) {
	machine := sunway.TestMachine(4, 4)
	topo := simnet.New(machine, 2)
	const ranks = 32
	algos := []struct {
		name string
		f    func(c *mpi.Comm, ch [][]float32) [][]float32
	}{
		{"direct", func(c *mpi.Comm, ch [][]float32) [][]float32 { return c.AllToAllDirect(ch) }},
		{"pairwise", func(c *mpi.Comm, ch [][]float32) [][]float32 { return c.AllToAllPairwise(ch) }},
		{"bruck", func(c *mpi.Comm, ch [][]float32) [][]float32 { return c.AllToAllBruck(ch) }},
		{"hier", func(c *mpi.Comm, ch [][]float32) [][]float32 { return c.AllToAllHier(ch) }},
	}
	for _, algo := range algos {
		for _, elems := range []int{16, 1024, 65536} {
			b.Run(fmt.Sprintf("%s/floats=%d", algo.name, elems), func(b *testing.B) {
				var sim float64
				var interSN int64
				for i := 0; i < b.N; i++ {
					w := mpi.NewWorld(ranks, topo)
					w.Run(func(c *mpi.Comm) {
						chunks := make([][]float32, ranks)
						for d := range chunks {
							chunks[d] = make([]float32, elems)
						}
						algo.f(c, chunks)
					})
					sim += w.MaxTime()
					interSN = w.Stats().MsgsAt(simnet.MachineLevel)
				}
				b.ReportMetric(sim/float64(b.N), "simsec")
				b.ReportMetric(float64(interSN), "interSN-msgs")
			})
		}
	}
}

// --- R4d: flattened wire exchange, codec × overlap ---

// BenchmarkAllToAll measures the flattened alltoallv wire path: FP32
// vs FP16 codec, blocking vs two-phase overlapped receive. The
// overlap variants charge a fixed compute window in both modes (after
// the exchange when blocking, between the receive legs when
// overlapped) so simsec isolates the hidden flight time; interSN-
// bytes shows the codec cut. Results recorded in BENCH_2.json.
func BenchmarkAllToAll(b *testing.B) {
	machine := sunway.TestMachine(4, 4)
	topo := simnet.New(machine, 2)
	const ranks, elems = 32, 1024
	const window = 25e-6 // seconds of local-expert compute per step
	for _, codec := range []mpi.Codec{mpi.FP32Wire, mpi.FP16Wire} {
		for _, overlap := range []bool{false, true} {
			mode := "blocking"
			if overlap {
				mode = "overlap"
			}
			b.Run(fmt.Sprintf("%s/%s", codec, mode), func(b *testing.B) {
				var sim float64
				var interSN int64
				for i := 0; i < b.N; i++ {
					w := mpi.NewWorld(ranks, topo)
					w.Run(func(c *mpi.Comm) {
						counts := make([]int, ranks)
						for d := range counts {
							counts[d] = elems
						}
						sb := mpi.NewSendBuf(counts)
						row := make([]float32, elems)
						for d := 0; d < ranks; d++ {
							sb.Append(d, row)
						}
						var local, remote *mpi.RecvBuf
						if overlap {
							ex := c.BeginExchange(true, codec)
							ex.PostAll(sb)
							ex.Flush()
							local = ex.RecvLocal()
							c.Compute(window)
							remote = ex.RecvRemote()
						} else {
							local = c.AllToAllvHier(sb, codec)
							c.Compute(window)
						}
						local.Release()
						if remote != nil {
							remote.Release()
						}
						sb.Release()
					})
					sim += w.MaxTime()
					interSN = w.Stats().BytesAt(simnet.MachineLevel)
				}
				b.ReportMetric(sim/float64(b.N), "simsec")
				b.ReportMetric(float64(interSN), "interSN-bytes")
			})
		}
	}
}

// BenchmarkDistMoEStep measures a full DistMoE forward+backward step
// under every wire configuration, with expert compute charged to the
// virtual clock (SimRate) so overlap shows in simsec/step.
func BenchmarkDistMoEStep(b *testing.B) {
	topo := simnet.New(sunway.TestMachine(2, 2), 1) // 4 ranks, 2 supernodes
	const P, tokens, d, hidden = 4, 16, 32, 64
	for _, mode := range []moe.RouteMode{moe.TokenChoice, moe.CapacityDrop} {
		for _, cc := range []moe.CommConfig{
			{Codec: mpi.FP32Wire, Overlap: false},
			{Codec: mpi.FP32Wire, Overlap: true},
			{Codec: mpi.FP16Wire, Overlap: false},
			{Codec: mpi.FP16Wire, Overlap: true},
		} {
			b.Run(mode.String()+"/"+cc.String(), func(b *testing.B) {
				var sim float64
				var interSN int64
				for i := 0; i < b.N; i++ {
					w := mpi.NewWorld(P, topo)
					w.Run(func(c *mpi.Comm) {
						r := tensor.NewRNG(5)
						m := moe.NewDistMoEComm("moe", r, moe.GateConfig{
							Dim: d, NumExperts: 8, TopK: 2, CapacityFactor: 1.5,
							Mode: mode, AuxLossWeight: 0.01,
						}, hidden, c, moe.Hierarchical, cc)
						m.SimRate = 2e9
						xr := tensor.NewRNG(500 + uint64(c.Rank()))
						x := tensor.Randn(xr, 1, tokens, d)
						m.Forward(x)
						m.Backward(tensor.Ones(tokens, d))
					})
					sim += w.MaxTime()
					interSN = w.Stats().BytesAt(simnet.MachineLevel)
				}
				b.ReportMetric(sim/float64(b.N), "simsec/step")
				b.ReportMetric(float64(interSN), "interSN-bytes")
			})
		}
	}
}

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
				eg.Backward(dout, st)
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

// --- R5: mixed-precision convergence ---

func BenchmarkR5Precision(b *testing.B) {
	for _, prec := range []sunway.Precision{sunway.FP32, sunway.FP16, sunway.Mixed, sunway.BF16} {
		b.Run(prec.String(), func(b *testing.B) {
			r := tensor.NewRNG(11)
			model := nn.NewGPT(nn.GPTConfig{
				Vocab: 64, Dim: 32, Heads: 4, Layers: 2, SeqLen: 16, FFNHidden: 64,
			}, r, func(block int, name string, rr *tensor.RNG) nn.Layer {
				return moe.NewLocalMoE(name, rr, moe.GateConfig{
					Dim: 32, NumExperts: 4, TopK: 2, CapacityFactor: 1.5, AuxLossWeight: 0.01,
				}, 64)
			})
			corpus, err := data.NewSynthetic(data.CorpusConfig{
				Vocab: 64, SeqLen: 16, Zipf: 1, Determinism: 0.9, Seed: 5,
			})
			if err != nil {
				b.Fatal(err)
			}
			tr, err := train.NewTrainer(model, corpus, train.NewAdam(0.01), train.Config{
				Batch: 8, Precision: prec, Schedule: train.ConstantLR(2e-3), ClipNorm: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			var last float32
			for i := 0; i < b.N; i++ {
				m := tr.Step()
				if !m.Skipped {
					last = m.Loss
				}
			}
			b.ReportMetric(float64(last), "final-loss")
			b.ReportMetric(float64(tr.MP.SkippedSteps()), "skipped")
		})
	}
}

// --- R6: expert load balance ---

func BenchmarkR6LoadBalance(b *testing.B) {
	cases := []struct {
		name string
		topk int
		aux  float32
	}{
		{"top1/no-aux", 1, 0},
		{"top1/aux", 1, 0.05},
		{"top2/no-aux", 2, 0},
		{"top2/aux", 2, 0.05},
	}
	for _, cse := range cases {
		b.Run(cse.name, func(b *testing.B) {
			r := tensor.NewRNG(13)
			const experts, dim = 8, 32
			m := moe.NewLocalMoE("moe", r, moe.GateConfig{
				Dim: dim, NumExperts: experts, TopK: cse.topk,
				CapacityFactor: 1.25, AuxLossWeight: cse.aux,
			}, 64)
			corpus, _ := data.NewSynthetic(data.CorpusConfig{
				Vocab: 64, SeqLen: 32, Zipf: 1.2, Determinism: 0.8, Seed: 3,
			})
			emb := nn.NewEmbedding("emb", r, 64, dim)
			opt := train.NewAdam(0)
			params := m.Params()
			var imbalance, overflowFrac float64
			for i := 0; i < b.N; i++ {
				ids, _ := corpus.Batch(4)
				x := emb.ForwardIDs(ids)
				out := m.Forward(x)
				// Drive the gate with a simple self-supervised loss so
				// aux has something to trade off against.
				nn.ZeroGrads(params)
				m.Backward(tensor.Ones(out.Shape...))
				opt.Step(params, 1e-3)

				routing := m.LastRouting()
				maxC, minC := 0, 1<<30
				total := 0
				for _, cnt := range routing.Counts {
					total += cnt
					if cnt > maxC {
						maxC = cnt
					}
					if cnt < minC {
						minC = cnt
					}
				}
				mean := float64(total) / experts
				imbalance = float64(maxC) / mean
				overflowFrac = float64(routing.Overflow) / float64(total+routing.Overflow)
			}
			b.ReportMetric(imbalance, "max/mean-load")
			b.ReportMetric(overflowFrac, "overflow-frac")
		})
	}
}

// --- R6b: load-aware expert management (migration + shadowing) ---

func BenchmarkR6bRebalance(b *testing.B) {
	// Imbalance before/after LPT migration under a skewed gate.
	topo := simnet.New(sunway.TestMachine(2, 2), 1)
	var before, after float64
	for i := 0; i < b.N; i++ {
		w := mpi.NewWorld(4, topo)
		w.Run(func(c *mpi.Comm) {
			r := tensor.NewRNG(31)
			dm := moe.NewDistMoE("moe", r, moe.GateConfig{
				Dim: 16, NumExperts: 8, TopK: 1, CapacityFactor: 100,
			}, 32, c, moe.Auto)
			// Skew: two hot experts.
			dm.Gate.Proj.Weight.W.Zero()
			for j := 0; j < 16; j++ {
				dm.Gate.Proj.Weight.W.Set(5, j, 0)
				dm.Gate.Proj.Weight.W.Set(-5, j, 1)
			}
			xr := tensor.NewRNG(32 + uint64(c.Rank()))
			x := tensor.Uniform(xr, -1, 1, 64, 16)
			dm.Forward(x)
			counts := dm.GatherExpertCounts(c)
			before = dm.Placement().Imbalance(counts)
			plan := dm.Placement().Rebalanced(counts)
			if err := dm.Migrate(plan); err != nil {
				panic(err)
			}
			after = dm.Placement().Imbalance(counts)
		})
	}
	b.ReportMetric(before, "imbalance-before")
	b.ReportMetric(after, "imbalance-after")
}

func BenchmarkR6cShadowTraffic(b *testing.B) {
	// Machine-level bytes with and without shadowing a hot expert.
	topo := simnet.New(sunway.TestMachine(2, 2), 1)
	run := func(shadow bool) int64 {
		w := mpi.NewWorld(4, topo)
		w.Run(func(c *mpi.Comm) {
			r := tensor.NewRNG(33)
			m := moe.NewDistMoE("moe", r, moe.GateConfig{
				Dim: 8, NumExperts: 4, TopK: 1, CapacityFactor: 100,
			}, 8, c, moe.Auto)
			m.Gate.Proj.Weight.W.Zero()
			for j := 0; j < 8; j++ {
				m.Gate.Proj.Weight.W.Set(10, j, 0)
			}
			if shadow {
				if err := m.SetShadows([]int{0}); err != nil {
					panic(err)
				}
			}
			w.Stats().Reset()
			xr := tensor.NewRNG(34 + uint64(c.Rank()))
			x := tensor.Uniform(xr, 0.5, 1.5, 64, 8)
			m.Forward(x)
			m.Backward(tensor.Ones(64, 8))
		})
		return w.Stats().BytesAt(simnet.MachineLevel)
	}
	var plain, shadowed int64
	for i := 0; i < b.N; i++ {
		plain = run(false)
		shadowed = run(true)
	}
	b.ReportMetric(float64(plain), "interSN-bytes-plain")
	b.ReportMetric(float64(shadowed), "interSN-bytes-shadowed")
}

// --- R7: full-machine projection ---

func BenchmarkR7Projection(b *testing.B) {
	machine := sunway.NewGenerationSunway()
	spec := perfmodel.BrainScaleSpecs()[2]
	d := perfmodel.Deployment{
		Machine: machine, RanksPerNode: 1, DataParallel: 1,
		ExpertParallel: machine.Nodes(), BatchPerRank: 4,
		Precision: sunway.Mixed, Efficiency: 0.35,
		A2A: perfmodel.A2AHierarchical, ZeRO: true, OverlapSync: true,
	}
	var rep perfmodel.Report
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = d.Project(spec)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.SustainedFlops/1e18, "EFLOPS")
	b.ReportMetric(rep.MemPerNodeGiB, "GiB/node")
	b.ReportMetric(rep.StepTime, "step-sec")
}

// --- R8: all-reduce scaling ---

func BenchmarkR8AllReduce(b *testing.B) {
	machine := sunway.TestMachine(4, 4)
	topo := simnet.New(machine, 2)
	const ranks = 32
	algos := []struct {
		name string
		f    func(c *mpi.Comm, d []float32) []float32
	}{
		{"ring", func(c *mpi.Comm, d []float32) []float32 { return c.AllReduceRing(d, mpi.OpSum) }},
		{"hier", func(c *mpi.Comm, d []float32) []float32 { return c.AllReduceHier(d, mpi.OpSum) }},
	}
	for _, algo := range algos {
		for _, elems := range []int{1 << 10, 1 << 16} {
			b.Run(fmt.Sprintf("%s/floats=%d", algo.name, elems), func(b *testing.B) {
				var sim float64
				for i := 0; i < b.N; i++ {
					w := mpi.NewWorld(ranks, topo)
					w.Run(func(c *mpi.Comm) {
						algo.f(c, make([]float32, elems))
					})
					sim += w.MaxTime()
				}
				b.SetBytes(int64(elems * 4))
				b.ReportMetric(sim/float64(b.N), "simsec")
			})
		}
	}
}

// --- R9: communication/computation breakdown ---

func BenchmarkR9Breakdown(b *testing.B) {
	for _, algo := range []moe.A2AAlgo{moe.Direct, moe.Hierarchical} {
		b.Run(algo.String(), func(b *testing.B) {
			_, tm := runEngineBench(b, 8, 4, 16, algo)
			steps := float64(b.N)
			b.ReportMetric(tm.Gate/steps, "gate-sec")
			b.ReportMetric(tm.Dispatch/steps, "dispatch-sec")
			b.ReportMetric(tm.Expert/steps, "expert-sec")
			b.ReportMetric(tm.Combine/steps, "combine-sec")
		})
	}
}

// --- R10: checkpoint overhead ---

func BenchmarkR10Checkpoint(b *testing.B) {
	for _, dim := range []int{32, 128} {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			r := tensor.NewRNG(1)
			model := nn.NewGPT(nn.GPTConfig{
				Vocab: 256, Dim: dim, Heads: 4, Layers: 2, SeqLen: 16, FFNHidden: 4 * dim,
			}, r, nil)
			params := model.Params()
			var buf bytes.Buffer
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := train.Save(&buf, train.Header{Step: int64(i)}, params); err != nil {
					b.Fatal(err)
				}
				if _, err := train.Load(bytes.NewReader(buf.Bytes()), params); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
			b.ReportMetric(float64(model.NumParams()), "params")
		})
	}
}

// --- Ablation benches (DESIGN.md design-decision list) ---

// BenchmarkAblationRecompute measures the wall-time cost of
// activation checkpointing (the memory/compute trade).
func BenchmarkAblationRecompute(b *testing.B) {
	for _, recompute := range []bool{false, true} {
		name := "plain"
		if recompute {
			name = "recompute"
		}
		b.Run(name, func(b *testing.B) {
			r := tensor.NewRNG(1)
			g := nn.NewGPT(nn.GPTConfig{
				Vocab: 128, Dim: 64, Heads: 4, Layers: 4, SeqLen: 32, FFNHidden: 256,
			}, r, nil)
			g.Recompute = recompute
			ids := make([]int, 4*32)
			targets := make([]int, len(ids))
			dr := tensor.NewRNG(2)
			for i := range ids {
				ids[i] = dr.Intn(128)
				targets[i] = dr.Intn(128)
			}
			var loss nn.SoftmaxCrossEntropy
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				loss.Forward(g.Forward(ids), targets)
				nn.ZeroGrads(g.Params())
				g.Backward(loss.Backward())
			}
		})
	}
}

// BenchmarkAblationOptimizer compares Adam and LAMB step cost and
// convergence under an accumulated (large effective) batch.
func BenchmarkAblationOptimizer(b *testing.B) {
	for _, opt := range []string{"adam", "lamb"} {
		b.Run(opt, func(b *testing.B) {
			r := tensor.NewRNG(3)
			model := nn.NewGPT(nn.GPTConfig{
				Vocab: 64, Dim: 32, Heads: 4, Layers: 2, SeqLen: 16, FFNHidden: 64,
			}, r, nil)
			corpus, err := data.NewSynthetic(data.CorpusConfig{
				Vocab: 64, SeqLen: 16, Zipf: 1, Determinism: 0.9, Seed: 6,
			})
			if err != nil {
				b.Fatal(err)
			}
			var o train.Optimizer
			if opt == "lamb" {
				o = train.NewLAMB(0.01)
			} else {
				o = train.NewAdam(0.01)
			}
			tr, err := train.NewTrainer(model, corpus, o, train.Config{
				Batch: 4, Precision: sunway.FP32,
				Schedule: train.ConstantLR(2e-3), ClipNorm: 1, Accum: 4,
			})
			if err != nil {
				b.Fatal(err)
			}
			var last float32
			for i := 0; i < b.N; i++ {
				last = tr.Step().Loss
			}
			b.ReportMetric(float64(last), "final-loss")
		})
	}
}

// BenchmarkAblationRouting compares learned top-k routing against the
// uniform-random baseline on the same loss surface.
func BenchmarkAblationRouting(b *testing.B) {
	for _, random := range []bool{false, true} {
		name := "learned"
		if random {
			name = "random"
		}
		b.Run(name, func(b *testing.B) {
			r := tensor.NewRNG(7)
			model := nn.NewGPT(nn.GPTConfig{
				Vocab: 64, Dim: 32, Heads: 4, Layers: 2, SeqLen: 16, FFNHidden: 64,
			}, r, func(block int, nme string, rr *tensor.RNG) nn.Layer {
				return moe.NewLocalMoE(nme, rr, moe.GateConfig{
					Dim: 32, NumExperts: 4, TopK: 2, CapacityFactor: 1.5,
					AuxLossWeight: 0.01, RandomRouting: random,
				}, 64)
			})
			corpus, err := data.NewSynthetic(data.CorpusConfig{
				Vocab: 64, SeqLen: 16, Zipf: 1, Determinism: 0.9, Seed: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
			tr, err := train.NewTrainer(model, corpus, train.NewAdam(0.01), train.Config{
				Batch: 8, Precision: sunway.FP32, Schedule: train.ConstantLR(2e-3), ClipNorm: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			var last float32
			for i := 0; i < b.N; i++ {
				last = tr.Step().Loss
			}
			b.ReportMetric(float64(last), "final-loss")
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
		kernels := []struct {
			name string
			f    func(x, y *tensor.Tensor) *tensor.Tensor
		}{
			{"naive", tensor.MatMulTransBNaive},
			{"dispatch", tensor.MatMulTransB},
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

// BenchmarkTrainStep measures the steady-state training step of a
// small MoE transformer — the hot loop the buffer pool, persistent
// worker pool, and GEMM dispatch target. allocs/op is the headline
// acceptance metric for the zero-allocation work.
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
	tr.Step() // warm optimizer state and pools before measuring
	b.ReportAllocs()
	b.ResetTimer()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < b.N; i++ {
		tr.Step()
	}
	runtime.ReadMemStats(&ms1)
	// Allocation regression gate: the steady-state step must stay
	// within 5% of the PR 6 zero-allocation baseline (2354 allocs/op).
	// The pipeline engine's boundary-activation sends ride the pooled
	// SendBuf/RecvBuf framing, so adding PP must not move this.
	const baseline, slack = 2354, 1.05
	if avg := float64(ms1.Mallocs-ms0.Mallocs) / float64(b.N); avg > baseline*slack {
		b.Fatalf("train step allocates %.0f objects/op, above the gate %.0f (baseline %d +5%%)",
			avg, baseline*slack, baseline)
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
