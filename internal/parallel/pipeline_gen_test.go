package parallel

import (
	"fmt"
	"math"
	"testing"

	"bagualu/internal/mpi"
	"bagualu/internal/parallel/layout"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
	"bagualu/internal/train"
)

// pipeCase is one sampled point of the pipeline equivalence space.
type pipeCase struct {
	S, V, M, layers, moeEvery, dp, ep, rcEvery int
	zero                                       bool
	prec                                       sunway.Precision
}

// String names the case's subtest. The precision is left out, so the
// names stayed those of the cases drawn before precision was; a failure
// reports it.
func (c pipeCase) String() string {
	return fmt.Sprintf("S%dV%dM%d_L%d_moe%d_dp%dxep%d_rc%d_zero%v",
		c.S, c.V, c.M, c.layers, c.moeEvery, c.dp, c.ep, c.rcEvery, c.zero)
}

// samplePipeCases draws n cases from a seed: S ∈ {2,3,4}, V ∈ {1,2}, a
// micro-batch count the schedule accepts, enough layers for S·V chunks
// and up to two more, MoE on every block, every other block or none,
// a dp×ep grid of one or two ranks, ZeRO on or off, a recompute policy
// marking no block, every block or every other one, and — drawn after
// every case's other fields, so those are what they were before
// precision was drawn — FP32, Mixed or FP16. Then, the same way and from
// the same stream, wide more whose stage grid is dp4 or dp2×ep2, so the
// first n keep their draws. Comm.AllReduce picks its algorithm by the
// group's supernode shape (Hierarchical), not by payload, and a stage
// syncs the flat run's per-unit groups whole, so the ring cuts the same
// chunk bounds: on this machine every dp4 and dp2×ep2 stage lies in one
// supernode, as the flat run's group does, and runs the same step list.
// A stage group that spanned supernodes would take the rails and sum in
// another association.
func samplePipeCases(seed uint64, n, wide int) []pipeCase {
	r := tensor.NewRNG(seed)
	pick := func(xs ...int) int { return xs[r.Intn(len(xs))] }
	draw := func(n int, grids [][2]int) []pipeCase {
		out := make([]pipeCase, n)
		for i := range out {
			c := pipeCase{S: pick(2, 3, 4), V: pick(1, 2)}
			if c.V > 1 {
				c.M = c.S * pick(1, 2)
			} else {
				c.M = 1 + r.Intn(2*c.S)
			}
			c.layers = c.S*c.V + r.Intn(3)
			g := grids[r.Intn(len(grids))]
			c.dp, c.ep = g[0], g[1]
			c.moeEvery = pick(0, 1, 2)
			c.rcEvery = pick(0, 1, 2)
			c.zero = r.Intn(2) == 1
			out[i] = c
		}
		for i := range out {
			out[i].prec = []sunway.Precision{sunway.FP32, sunway.Mixed, sunway.FP16}[r.Intn(3)]
		}
		return out
	}
	out := draw(n, [][2]int{{1, 1}, {2, 1}, {1, 2}})
	return append(out, draw(wide, [][2]int{{4, 1}, {2, 2}})...)
}

// analyticCompute is what one step of e's pipeline charges for model
// FLOPs at rate with no MoE layer pricing its own GEMMs: per local
// chunk and micro-batch one forward, a backward of twice that, and a
// replay of the chunk's policy-marked share.
func analyticCompute(e *Engine, rate float64) float64 {
	stage := e.Strategy.Coord(layout.AxisPipe, e.Comm.Rank())
	var secs float64
	for v := 0; v < e.Strategy.VPP(); v++ {
		g := v*e.Strategy.PP() + stage
		c := e.part[g]
		marked := 0
		for i := c.Lo; i < c.Hi; i++ {
			if e.Model.RecomputePolicy != nil && e.Model.RecomputePolicy[i] {
				marked++
			}
		}
		var flops float64
		for _, u := range e.Model.Units(c.Lo, c.Hi) {
			fwd, _ := e.unitFlops(u)
			flops += fwd
		}
		passes := 3 + float64(marked)/float64(c.Blocks())
		secs += float64(e.Trainer.Runner.Micro) * passes * flops / rate
	}
	return secs
}

// poolOutstanding is how many pooled buffers are checked out.
func poolOutstanding() int64 {
	gets, misses, releases := tensor.PoolStats()
	return gets + misses - releases
}

// TestPipelineGeneratedEquivalence samples pipelines from a seed and
// holds each to three checks against a flat gradient-accumulation run
// of the same model, tokens, optimizer and precision:
//
//  1. every step's loss and every owned weight after the last step are
//     bitwise the flat run's; the gradient norm is within two ulps of
//     it, as its float64 partials add up stage by stage under PP
//     (nothing here clips, so it steers nothing);
//  2. each rank's per-step ComputeSim equals analyticCompute, so a
//     replay that cannot show in the bits shows in the time;
//  3. after each Step no (chunk, micro-batch) pass is still stashed and
//     every pooled buffer the step took is back in the pool.
func TestPipelineGeneratedEquivalence(t *testing.T) {
	const (
		steps = 2
		rate  = 1e9
	)
	for _, c := range samplePipeCases(29, 16, 8) {
		t.Run(c.String(), func(t *testing.T) {
			mc := pipeModelCfg(c.layers)
			mc.MoEEvery = c.moeEvery
			mc.RecomputeEvery = c.rcEvery
			tc := pipeTrainCfg(c.M)
			tc.Precision = c.prec
			t.Logf("precision %v", c.prec)
			opt := train.OptimizerFactory(c.zero, 0)
			ref := runPipeline(t, Strategy{DataParallel: c.dp, ExpertParallel: c.ep}, mc, tc, steps, opt)

			strat := Strategy{DataParallel: c.dp, ExpertParallel: c.ep, Pipeline: c.S, Virtual: c.V}
			got := pipeRun{stats: make([]StepStats, steps), weights: map[string][]float32{}}
			perRank := make([]map[string][]float32, strat.Size())
			errs := make([]error, strat.Size())
			w := mpi.NewWorld(strat.Size(), simnet.New(sunway.TestMachine(2, 4), 1))
			w.Run(func(comm *mpi.Comm) {
				e, err := NewEngine(comm, strat, mc, tinyCorpusCfg(), tc, opt(), 11)
				if err != nil {
					panic(err)
				}
				e.SetComputeRate(rate)
				fail := func(format string, args ...any) {
					if errs[comm.Rank()] == nil {
						errs[comm.Rank()] = fmt.Errorf(format, args...)
					}
				}
				for s := 0; s < steps; s++ {
					comm.Barrier()
					before := poolOutstanding()
					comm.Barrier()
					st := e.Step()
					comm.Barrier()
					if comm.Rank() == 0 {
						got.stats[s] = st
						if after := poolOutstanding(); after != before {
							fail("step %d: %d pooled buffers outstanding after the step, %d before", s, after, before)
						}
					}
					if n := e.Trainer.Runner.Stashed(); n != 0 {
						fail("step %d: %d passes still stashed", s, n)
					}
					if want := analyticCompute(e, rate); math.Abs(st.ComputeSim-want) > 1e-12*want {
						fail("step %d: ComputeSim %v, the policy charges %v", s, st.ComputeSim, want)
					}
				}
				snap := map[string][]float32{}
				for _, p := range e.Trainer.Params() {
					snap[p.Name] = append([]float32(nil), p.W.Data...)
				}
				perRank[comm.Rank()] = snap
			})
			for r, err := range errs {
				if err != nil {
					t.Fatalf("%v, rank %d: %v", c.prec, r, err)
				}
			}
			for _, snap := range perRank {
				for name, w := range snap {
					got.weights[name] = w
				}
			}
			for s, st := range got.stats {
				want := ref.stats[s]
				if math.Float32bits(st.Loss) != math.Float32bits(want.Loss) {
					t.Fatalf("%v step %d: loss %v, flat run %v", c.prec, s, st.Loss, want.Loss)
				}
				if !withinULPs(st.GradNorm, want.GradNorm, 2) {
					t.Fatalf("%v step %d: grad norm %v, flat run %v", c.prec, s, st.GradNorm, want.GradNorm)
				}
			}
			if len(got.weights) != len(ref.weights) {
				t.Fatalf("%v: %d owned weights across the fold, %d in the flat run", c.prec, len(got.weights), len(ref.weights))
			}
			for name, w := range got.weights {
				for i, v := range w {
					if math.Float32bits(v) != math.Float32bits(ref.weights[name][i]) {
						t.Fatalf("%v: weight %s[%d]: %v, flat run %v", c.prec, name, i, v, ref.weights[name][i])
					}
				}
			}
		})
	}
}

// withinULPs reports whether two positive float32s are at most n
// representable values apart.
func withinULPs(a, b float32, n int64) bool {
	d := int64(math.Float32bits(a)) - int64(math.Float32bits(b))
	return -n <= d && d <= n
}
