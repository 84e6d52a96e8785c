package moe

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"bagualu/internal/mpi"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
)

// tripCase is one shape of the dispatch → expert → combine round trip
// that a rewrite of the exchange sequence could plausibly break.
type tripCase struct {
	name   string
	topo   func() *simnet.Topology
	tokens func(rank int) int
	skew   bool  // every token hugs one direction, so routing piles onto few experts
	shadow []int // experts replicated on every rank (training only)
}

func sixTokens(int) int { return 6 }

var uniformTrip = tripCase{name: "uniform", topo: distTestTopo, tokens: sixTokens}

// tripCases are the refactor-sensitive shapes: a skewed dropless batch
// with uneven per-rank counts, a rank that contributes no tokens, a
// shadowed expert running inside the in-flight window, and a comm that
// fits in one supernode so the remote leg is empty.
var tripCases = []tripCase{
	uniformTrip,
	{name: "skewed", topo: distTestTopo, tokens: func(r int) int { return 2 + 5*r }, skew: true},
	{name: "zero-token-rank", topo: distTestTopo, tokens: func(r int) int { return 6 * (r % 2) }},
	{name: "shadowed", topo: distTestTopo, tokens: sixTokens, shadow: []int{3}},
	{name: "single-supernode", topo: func() *simnet.Topology { return simnet.New(sunway.TestMachine(1, 4), 1) }, tokens: sixTokens},
}

// input draws rank's token batch for the case.
func (tc tripCase) input(seed uint64, rank, d int) *tensor.Tensor {
	x := tensor.Randn(tensor.NewRNG(seed+100+uint64(rank)), 1, tc.tokens(rank), d)
	if tc.skew {
		dir := tensor.Randn(tensor.NewRNG(seed+7), 1, 1, d)
		for t := 0; t < x.Shape[0]; t++ {
			row := x.Row(t)
			for j := range row {
				row[j] = 4*dir.Data[j] + 0.1*row[j]
			}
		}
	}
	return x
}

// tripSig folds every rank's virtual clock and wire counters into one
// digest. Both are pure functions of the Post/Flush/Recv/Compute call
// sequence, so a pinned digest fails when that sequence changes.
type tripSig struct{ text string }

func (s *tripSig) add(label string, now []float64, wire []mpi.WireStats) {
	for rank := range now {
		s.text += fmt.Sprintf("%s rank %d now %016x wire %v\n", label, rank, math.Float64bits(now[rank]), wire[rank])
	}
}

func (s *tripSig) check(t *testing.T, want uint64) {
	t.Helper()
	h := fnv.New64a()
	h.Write([]byte(s.text))
	if got := h.Sum64(); got != want {
		t.Errorf("clock/wire digest %#016x, want %#016x; readings:\n%s", got, want, s.text)
	}
}

// distRun is what one 4-rank forward+backward leaves behind.
type distRun struct {
	outs, dxs []*tensor.Tensor
	grads     []map[string]*tensor.Tensor
	simTime   float64
	now       []float64       // per-rank virtual clock after the step
	wire      []mpi.WireStats // per-rank flattened-exchange counters
}

// runDistCC runs one forward+backward of tc on 4 ranks with an explicit
// wire configuration and optional SimRate.
func runDistCC(t *testing.T, tc tripCase, algo A2AAlgo, cc CommConfig, simRate float64, seed uint64) distRun {
	t.Helper()
	const P, d = 4, 8
	run := distRun{
		outs: make([]*tensor.Tensor, P), dxs: make([]*tensor.Tensor, P),
		grads: make([]map[string]*tensor.Tensor, P),
		now:   make([]float64, P), wire: make([]mpi.WireStats, P),
	}
	w := mpi.NewWorld(P, tc.topo())
	w.Run(func(c *mpi.Comm) {
		m := NewDistMoEComm("moe", tensor.NewRNG(seed), gateCfg(d, 8, 2), 16, c, algo, cc)
		m.SimRate = simRate
		if len(tc.shadow) > 0 {
			if err := m.SetShadows(tc.shadow); err != nil {
				t.Error(err)
			}
		}
		x := tc.input(seed, c.Rank(), d)
		run.outs[c.Rank()] = m.Forward(x)
		run.dxs[c.Rank()] = m.Backward(tensor.Ones(x.Shape[0], d))
		g := map[string]*tensor.Tensor{}
		for _, p := range m.Params() {
			g[p.Name] = p.G.Clone()
		}
		run.grads[c.Rank()] = g
		run.now[c.Rank()] = c.Now()
		run.wire[c.Rank()] = c.WireStats()
	})
	run.simTime = w.MaxTime()
	return run
}

// TestDistMoEOverlapMatchesBlocking: the two-phase exchange must be a
// pure scheduling change — identical outputs, input grads, and
// parameter grads (up to summation-order rounding in dW) — on every
// refactor-sensitive shape. Each shape's virtual clocks and wire
// counters are pinned in two digests, blocking rows then overlap rows:
// the blocking ones are the values pinned before Forward, Backward and
// Infer were folded onto one round-trip driver, the overlap ones those
// of the cross-supernode leg running as an mpi request.
func TestDistMoEOverlapMatchesBlocking(t *testing.T) {
	pinned := map[string][2]uint64{
		"uniform":          {0x874931d8d2989a72, 0xcfaabd87db5e29e1},
		"skewed":           {0xe243ffc4799a2f6a, 0x364bfc2feb6d1e71},
		"zero-token-rank":  {0xfb7f6eb53d00820f, 0xf5a5f7a3b2fe8f48},
		"shadowed":         {0x3238116b94d0f122, 0x4fa160a502418bf2},
		"single-supernode": {0xb001fc78a4665d30, 0x5e4805faf1676bac},
	}
	for _, tc := range tripCases {
		t.Run(tc.name, func(t *testing.T) {
			var sig [2]tripSig // blocking, overlap
			for _, algo := range []A2AAlgo{Direct, Hierarchical, Auto} {
				b := runDistCC(t, tc, algo, CommConfig{Codec: mpi.FP32Wire, Overlap: false}, 2e9, 11)
				o := runDistCC(t, tc, algo, CommConfig{Codec: mpi.FP32Wire, Overlap: true}, 2e9, 11)
				sig[0].add(algo.String()+"/blocking", b.now, b.wire)
				sig[1].add(algo.String()+"/overlap", o.now, o.wire)
				for rank := range b.outs {
					if !o.outs[rank].AllClose(b.outs[rank], 1e-5) {
						t.Fatalf("%v rank %d: overlap forward differs from blocking", algo, rank)
					}
					if !o.dxs[rank].AllClose(b.dxs[rank], 1e-5) {
						t.Fatalf("%v rank %d: overlap input grad differs from blocking", algo, rank)
					}
					for name, want := range b.grads[rank] {
						if !o.grads[rank][name].AllClose(want, 1e-4) {
							t.Fatalf("%v rank %d: overlap grad %s differs from blocking", algo, rank, name)
						}
					}
				}
			}
			sig[0].check(t, pinned[tc.name][0])
			sig[1].check(t, pinned[tc.name][1])
		})
	}
}

// TestDistMoEFP16GradsWithinTolerance is the acceptance-criteria
// test: hierarchical dispatch with the FP16 wire codec must produce
// outputs and gradients equal to the direct FP32 run within FP16
// quantization tolerance on a small model.
func TestDistMoEFP16GradsWithinTolerance(t *testing.T) {
	ref := runDistCC(t, uniformTrip, Direct, CommConfig{Codec: mpi.FP32Wire}, 0, 23)
	for _, overlap := range []bool{false, true} {
		t.Run(fmt.Sprintf("overlap=%v", overlap), func(t *testing.T) {
			got := runDistCC(t, uniformTrip, Hierarchical, CommConfig{Codec: mpi.FP16Wire, Overlap: overlap}, 0, 23)
			// FP16 has ~2^-11 relative precision; activations here are
			// O(1) and each output accumulates a handful of expert rows,
			// so a few 1e-2 absolute slack covers the quantization of
			// dispatch, combine, and both backward legs.
			const tol = 3e-2
			for rank := range ref.outs {
				if !got.outs[rank].AllClose(ref.outs[rank], tol) {
					t.Fatalf("rank %d: fp16 forward outside fp16 tolerance", rank)
				}
				if !got.dxs[rank].AllClose(ref.dxs[rank], tol) {
					t.Fatalf("rank %d: fp16 input grad outside fp16 tolerance", rank)
				}
				for name, want := range ref.grads[rank] {
					if !got.grads[rank][name].AllClose(want, tol) {
						t.Fatalf("rank %d: fp16 grad %s outside fp16 tolerance", rank, name)
					}
				}
			}
		})
	}
}

// TestDistMoEFP16CutsInterSupernodeBytes: the codec must strip at
// least 45% of the simulated inter-supernode bytes from a training
// step, end to end through dispatch, combine, and both backward legs.
func TestDistMoEFP16CutsInterSupernodeBytes(t *testing.T) {
	inter := func(codec mpi.Codec) int64 {
		const P, tokens, d = 4, 16, 32
		w := mpi.NewWorld(P, distTestTopo())
		w.Run(func(c *mpi.Comm) {
			r := tensor.NewRNG(5)
			cfg := gateCfg(d, 8, 2)
			m := NewDistMoEComm("moe", r, cfg, 64, c, Hierarchical, CommConfig{Codec: codec})
			xr := tensor.NewRNG(500 + uint64(c.Rank()))
			x := tensor.Randn(xr, 1, tokens, d)
			m.Forward(x)
			m.Backward(tensor.Ones(tokens, d))
		})
		return w.Stats().Snapshot().Bytes[simnet.MachineLevel]
	}
	fp32 := inter(mpi.FP32Wire)
	fp16 := inter(mpi.FP16Wire)
	if fp32 == 0 {
		t.Fatal("no inter-supernode traffic in fp32 baseline")
	}
	red := 1 - float64(fp16)/float64(fp32)
	t.Logf("step inter-supernode bytes: fp32=%d fp16=%d (-%.1f%%)", fp32, fp16, 100*red)
	if red < 0.45 {
		t.Fatalf("FP16 wire cut inter-supernode bytes by only %.1f%%, want >=45%%", 100*red)
	}
}

// TestDistMoEOverlapReducesVirtualTime: with expert compute charged
// to the virtual clock, the two-phase schedule must finish the step
// in less simulated time than the blocking one on a multi-supernode
// topology (local compute hides cross-supernode flight time).
func TestDistMoEOverlapReducesVirtualTime(t *testing.T) {
	// SimRate low enough that expert GEMMs take comparable time to the
	// simulated wire flight, the regime where overlap pays.
	const simRate = 2e9
	blocking := runDistCC(t, uniformTrip, Hierarchical, CommConfig{Codec: mpi.FP16Wire, Overlap: false}, simRate, 31).simTime
	overlap := runDistCC(t, uniformTrip, Hierarchical, CommConfig{Codec: mpi.FP16Wire, Overlap: true}, simRate, 31).simTime
	t.Logf("virtual step time: blocking=%.3gs overlap=%.3gs", blocking, overlap)
	if overlap >= blocking {
		t.Fatalf("overlap virtual time %.3g not below blocking %.3g", overlap, blocking)
	}
}

// TestDistMoEWireStatsPerStep: the per-comm WireStats must attribute
// bytes to both tiers and show Raw > Wire at machine level under the
// FP16 codec.
func TestDistMoEWireStatsPerStep(t *testing.T) {
	const P, tokens, d = 4, 8, 16
	agg := make([]mpi.WireStats, P)
	w := mpi.NewWorld(P, distTestTopo())
	w.Run(func(c *mpi.Comm) {
		r := tensor.NewRNG(9)
		m := NewDistMoEComm("moe", r, gateCfg(d, 8, 2), 32, c, Hierarchical, CommConfig{Codec: mpi.FP16Wire})
		xr := tensor.NewRNG(900 + uint64(c.Rank()))
		x := tensor.Randn(xr, 1, tokens, d)
		before := c.WireStats()
		m.Forward(x)
		m.Backward(tensor.Ones(tokens, d))
		agg[c.Rank()] = c.WireStats().Sub(before)
	})
	var total mpi.WireStats
	for _, s := range agg {
		for l := range total.Wire {
			total.Wire[l] += s.Wire[l]
			total.Raw[l] += s.Raw[l]
		}
	}
	inter, intra := total.Wire[simnet.MachineLevel], total.Wire[simnet.NodeLevel]+total.Wire[simnet.SupernodeLevel]
	if inter == 0 || intra == 0 {
		t.Fatalf("expected traffic at both tiers: inter=%d intra=%d", inter, intra)
	}
	if total.Wire[simnet.MachineLevel] >= total.Raw[simnet.MachineLevel] {
		t.Fatalf("fp16 wire %d not below raw %d at machine level",
			total.Wire[simnet.MachineLevel], total.Raw[simnet.MachineLevel])
	}
}
