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
// pure scheduling change — bit-identical outputs, input grads and
// parameter grads under both codecs — on every refactor-sensitive
// shape: both modes compute the local leg's rows, then the
// cross-supernode leg's, in the same two passes. Each shape's FP32
// virtual clocks and wire counters are pinned in two digests, blocking
// rows then overlap rows: they move with the exchanges' step lists
// (coll.Direct, coll.Rail), whose send order sets the clocks, and with
// the expert compute each leg books.
func TestDistMoEOverlapMatchesBlocking(t *testing.T) {
	pinned := map[string][2]uint64{
		"uniform":          {0xf6d42c67f53668f4, 0xe96819540035158f},
		"skewed":           {0xb1f28df718a26c23, 0x019ff0311ea9035f},
		"zero-token-rank":  {0xeecf7145d1b629ce, 0xcdfa1a8d2dd78bb0},
		"shadowed":         {0xe95a0f1e39a61156, 0x19c7f6c7b9e5aea1},
		"single-supernode": {0x8ffaac29e3f5ee6b, 0x792c28ad98690d0f},
	}
	for _, tc := range tripCases {
		t.Run(tc.name, func(t *testing.T) {
			var sig [2]tripSig // blocking, overlap
			for _, codec := range []mpi.Codec{mpi.FP32Wire, mpi.FP16Wire} {
				for _, algo := range []A2AAlgo{Direct, Hierarchical, Auto} {
					b := runDistCC(t, tc, algo, CommConfig{Codec: codec, Overlap: false}, 2e9, 11)
					o := runDistCC(t, tc, algo, CommConfig{Codec: codec, Overlap: true}, 2e9, 11)
					if codec == mpi.FP32Wire {
						sig[0].add(algo.String()+"/blocking", b.now, b.wire)
						sig[1].add(algo.String()+"/overlap", o.now, o.wire)
					}
					for rank := range b.outs {
						if !bitEqual(o.outs[rank], b.outs[rank]) {
							t.Fatalf("%v %v rank %d: overlap forward differs from blocking", codec, algo, rank)
						}
						if !bitEqual(o.dxs[rank], b.dxs[rank]) {
							t.Fatalf("%v %v rank %d: overlap input grad differs from blocking", codec, algo, rank)
						}
						for name, want := range b.grads[rank] {
							if !bitEqual(o.grads[rank][name], want) {
								t.Fatalf("%v %v rank %d: overlap grad %s differs from blocking", codec, algo, rank, name)
							}
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

// TestDistMoEWireStatsW2Shape puts W2's exchange traffic on the record:
// the benchmark's train_moe_ep8 world (four supernodes of one two-rank
// node, two expert groups of four ranks, each spanning two supernodes)
// runs one step's MoE layers — two, each a forward and a backward of two
// exchanges, at W2's width, experts and tokens under the FP16 codec with
// overlap — and every rank's WireStats are summed after Run returns, so
// no count races a rank still in its step. Per exchange each rank posts
// its self chunk, one merged message to its supernode's other member and
// one rail message: eight of each a world, none at supernode level. The
// step's bytes are logged for the record.
func TestDistMoEWireStatsW2Shape(t *testing.T) {
	const P, layers, tokens, d = 8, 2, 4 * 32, 128
	agg := make([]mpi.WireStats, P)
	w := mpi.NewWorld(P, simnet.New(sunway.TestMachine(4, 1), 2))
	w.Run(func(c *mpi.Comm) {
		ep := c.Split(c.Rank()/4, c.Rank())
		xr := tensor.NewRNG(700 + uint64(c.Rank()))
		for l := range layers {
			m := NewDistMoEComm(fmt.Sprintf("moe%d", l), tensor.NewRNG(uint64(11+l)), gateCfg(d, 16, 2), 256, ep, Auto,
				CommConfig{Codec: mpi.FP16Wire, Overlap: true})
			m.Forward(tensor.Randn(xr, 1, tokens, d))
			m.Backward(tensor.Randn(xr, 1, tokens, d))
		}
		agg[c.Rank()] = ep.WireStats()
	})
	var total mpi.WireStats
	for _, s := range agg {
		for l := range total.Wire {
			total.Wire[l] += s.Wire[l]
			total.Raw[l] += s.Raw[l]
			total.Msgs[l] += s.Msgs[l]
		}
	}
	exchanges := total.Msgs[simnet.SelfLevel] / P
	net := total.Msgs[simnet.NodeLevel] + total.Msgs[simnet.SupernodeLevel] + total.Msgs[simnet.MachineLevel]
	t.Logf("per step: %d exchanges, %d messages (%v by level), %d bytes off-rank, %d across supernodes",
		exchanges, net, total.Msgs, total.TotalWire()-total.Wire[simnet.SelfLevel], total.Wire[simnet.MachineLevel])
	want := [4]int64{P, P, 0, P}
	for l := range want {
		want[l] *= exchanges
	}
	if exchanges != 4*layers || total.Msgs != want {
		t.Fatalf("%d exchanges sent messages %v by level, want %d exchanges sending %v", exchanges, total.Msgs, 4*layers, want)
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
