package moe

import (
	"math"
	"testing"

	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/tensor"
)

// norm2 returns the L2 norm of a.
func norm2(a *tensor.Tensor) float32 {
	var sum float64
	for _, v := range a.Data {
		sum += float64(v) * float64(v)
	}
	return float32(math.Sqrt(sum))
}

func gateCfg(d, e, k int) GateConfig {
	return GateConfig{Dim: d, NumExperts: e, TopK: k, CapacityFactor: 100} // effectively no drops
}

func TestGateConfigValidate(t *testing.T) {
	if err := gateCfg(4, 4, 2).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := gateCfg(4, 4, 5)
	if bad.Validate() == nil {
		t.Fatal("TopK > NumExperts accepted")
	}
	bad = gateCfg(4, 4, 1)
	bad.Mode = CapacityDrop
	bad.CapacityFactor = 0
	if bad.Validate() == nil {
		t.Fatal("zero capacity factor accepted in capacity-drop mode")
	}
	// Dropless token-choice ignores capacity entirely, so zero is fine.
	ok := gateCfg(4, 4, 1)
	ok.CapacityFactor = 0
	if err := ok.Validate(); err != nil {
		t.Fatalf("dropless config rejected: %v", err)
	}
	bad = gateCfg(4, 4, 1)
	bad.Mode = ExpertChoice
	bad.RandomRouting = true
	if bad.Validate() == nil {
		t.Fatal("expert-choice + random routing accepted")
	}
}

func TestCapacityFormula(t *testing.T) {
	c := GateConfig{Dim: 1, NumExperts: 8, TopK: 2, CapacityFactor: 1.25}
	// ceil(1.25 * 64 * 2 / 8) = 20
	if got := c.Capacity(64); got != 20 {
		t.Fatalf("Capacity(64) = %d, want 20", got)
	}
	// Minimum capacity is 1.
	c.CapacityFactor = 0.001
	if got := c.Capacity(1); got != 1 {
		t.Fatalf("tiny capacity = %d, want 1", got)
	}
}

func TestTopKIndices(t *testing.T) {
	row := []float32{0.1, 0.5, 0.2, 0.9}
	idx := topKIndices(row, 2, nil)
	if idx[0] != 3 || idx[1] != 1 {
		t.Fatalf("topK = %v", idx)
	}
	if got := topKIndices(row, 1, nil); got[0] != 3 {
		t.Fatalf("top1 = %v", got)
	}
}

func TestGateRoutingInvariants(t *testing.T) {
	r := tensor.NewRNG(1)
	cfg := gateCfg(8, 4, 2)
	g := NewGate("g", r, cfg)
	x := tensor.Randn(r, 1, 32, 8)
	routing := g.Forward(x)
	for t2, as := range routing.Assign {
		if len(as) != 2 {
			t.Fatalf("token %d has %d assignments", t2, len(as))
		}
		if as[0].Expert == as[1].Expert {
			t.Fatalf("token %d routed twice to expert %d", t2, as[0].Expert)
		}
		var sum float32
		for _, a := range as {
			if a.Weight <= 0 || a.Weight > 1 {
				t.Fatalf("weight %v out of range", a.Weight)
			}
			sum += a.Weight
		}
		if math.Abs(float64(sum)-1) > 1e-5 {
			t.Fatalf("token %d weights sum to %v", t2, sum)
		}
		if as[0].Weight < as[1].Weight {
			t.Fatalf("token %d weights not in descending order", t2)
		}
	}
	total := 0
	for _, c := range routing.Counts {
		total += c
	}
	if total+routing.Overflow != 32*2 {
		t.Fatalf("counts %d + overflow %d != 64", total, routing.Overflow)
	}
}

func TestGateCapacityEnforced(t *testing.T) {
	r := tensor.NewRNG(2)
	cfg := gateCfg(4, 4, 1)
	cfg.Mode = CapacityDrop // legacy ablation mode: the only one that drops
	cfg.CapacityFactor = 1  // tight: capacity = ceil(T/E)
	g := NewGate("g", r, cfg)
	// Force all tokens toward expert 0 by biasing the projection.
	g.Proj.Weight.W.Zero()
	for i := 0; i < 4; i++ {
		g.Proj.Weight.W.Set(10, i, 0)
	}
	x := tensor.Ones(16, 4)
	routing := g.Forward(x)
	capacity := cfg.Capacity(16) // 4
	if routing.Counts[0] != capacity {
		t.Fatalf("expert 0 count %d, want capacity %d", routing.Counts[0], capacity)
	}
	if routing.Overflow != 16-capacity {
		t.Fatalf("overflow %d, want %d", routing.Overflow, 16-capacity)
	}
	// Earlier tokens keep their slots.
	for t2 := 0; t2 < capacity; t2++ {
		if routing.Assign[t2][0].Dropped {
			t.Fatalf("token %d dropped despite arriving early", t2)
		}
	}
	for t2 := capacity; t2 < 16; t2++ {
		if !routing.Assign[t2][0].Dropped {
			t.Fatalf("token %d kept beyond capacity", t2)
		}
	}
}

func TestAuxLossBalancedVsSkewed(t *testing.T) {
	r := tensor.NewRNG(3)
	cfg := gateCfg(4, 8, 1)
	cfg.AuxLossWeight = 1

	// Near-uniform gate: aux ≈ 1.
	g := NewGate("g", r, cfg)
	g.Proj.Weight.W.Zero()
	x := tensor.Randn(r, 1, 64, 4)
	balanced := g.Forward(x).AuxLoss

	// Heavily skewed gate.
	g2 := NewGate("g2", r, cfg)
	g2.Proj.Weight.W.Zero()
	for i := 0; i < 4; i++ {
		g2.Proj.Weight.W.Set(10, i, 0)
	}
	skewed := g2.Forward(tensor.Ones(64, 4)).AuxLoss

	if math.Abs(float64(balanced)-1) > 0.3 {
		t.Fatalf("balanced aux = %v, want ~1", balanced)
	}
	if skewed < 4 {
		t.Fatalf("skewed aux = %v, want near %d", skewed, 8)
	}
}

func TestLocalMoEForwardShapeAndDeterminism(t *testing.T) {
	r := tensor.NewRNG(4)
	m := NewLocalMoE("moe", r, gateCfg(8, 4, 2), 16)
	x := tensor.Randn(r, 1, 10, 8)
	out1 := m.Forward(x).Clone()
	out2 := m.Forward(x)
	if !out1.SameShape(x) {
		t.Fatalf("output shape %v", out1.Shape)
	}
	if !out1.AllClose(out2, 0) {
		t.Fatal("MoE forward is not deterministic")
	}
}

func TestLocalMoESingleExpertMatchesFFN(t *testing.T) {
	// With one expert and top-1, MoE(x) must equal expert(x) exactly
	// (weight is 1).
	r := tensor.NewRNG(5)
	m := NewLocalMoE("moe", r, gateCfg(6, 1, 1), 12)
	x := tensor.Randn(r, 1, 5, 6)
	got := m.Forward(x)
	want := m.Experts[0].Forward(x)
	if !got.AllClose(want, 1e-5) {
		t.Fatal("single-expert MoE differs from plain FFN")
	}
}

func TestLocalMoEGradNumeric(t *testing.T) {
	r := tensor.NewRNG(6)
	cfg := gateCfg(4, 3, 2)
	cfg.AuxLossWeight = 0.1
	m := NewLocalMoE("moe", r, cfg, 8)
	x := tensor.Randn(r, 1, 6, 4)
	w := tensor.Randn(r, 1, 6, 4)

	loss := func() float64 {
		out := m.Forward(x)
		return float64(tensor.Dot(out, w)) + float64(m.AuxLoss())
	}

	// Analytic gradients.
	params := m.Params()
	nn.ZeroGrads(params)
	base := loss()
	_ = base
	dx := m.Backward(w.Clone())

	// h must stay small: larger perturbations flip discrete top-k
	// routing decisions, which are (correctly) not differentiated.
	const h = 1e-4
	check := func(label string, data, grad []float32) {
		for i := range data {
			orig := data[i]
			data[i] = orig + h
			fp := loss()
			data[i] = orig - h
			fm := loss()
			data[i] = orig
			num := (fp - fm) / (2 * h)
			if math.Abs(num-float64(grad[i])) > 0.05*math.Max(1, math.Abs(num)) {
				t.Fatalf("%s grad[%d] = %v, numeric %v", label, i, grad[i], num)
			}
		}
	}
	check("input", x.Data, dx.Data)
	for _, p := range params {
		check(p.Name, p.W.Data, p.G.Data)
	}
}

func TestLocalMoEDroppedTokensPassThrough(t *testing.T) {
	// A dropped token's MoE output must be exactly zero (the
	// transformer residual carries it).
	r := tensor.NewRNG(7)
	cfg := gateCfg(4, 2, 1)
	cfg.Mode = CapacityDrop   // dropping exists only in the legacy mode
	cfg.CapacityFactor = 0.01 // capacity 1 per expert
	m := NewLocalMoE("moe", r, cfg, 8)
	x := tensor.Randn(r, 1, 8, 4)
	out := m.Forward(x)
	routing := m.LastRouting()
	if routing.Overflow == 0 {
		t.Fatal("test needs overflow; tighten capacity")
	}
	for t2 := 0; t2 < 8; t2++ {
		if routing.Assign[t2][0].Dropped {
			for j := 0; j < 4; j++ {
				if out.At(t2, j) != 0 {
					t.Fatalf("dropped token %d has non-zero output", t2)
				}
			}
		}
	}
}

// distTestTopo gives 4 ranks spanning 2 supernodes.
func distTestTopo() *simnet.Topology {
	return simnet.New(sunway.TestMachine(2, 2), 1)
}

// runDist runs a 4-rank DistMoE forward/backward and returns per-rank
// outputs, input grads, and the summed expert/gate gradients.
func runDist(t *testing.T, algo A2AAlgo, seed uint64) (outs, dxs []*tensor.Tensor) {
	t.Helper()
	const P, tokens, d = 4, 6, 8
	outs = make([]*tensor.Tensor, P)
	dxs = make([]*tensor.Tensor, P)
	w := mpi.NewWorld(P, distTestTopo())
	w.Run(func(c *mpi.Comm) {
		r := tensor.NewRNG(seed)
		cfg := gateCfg(d, 8, 2)
		m := NewDistMoE("moe", r, cfg, 16, c, algo)
		xr := tensor.NewRNG(seed + 100 + uint64(c.Rank()))
		x := tensor.Randn(xr, 1, tokens, d)
		out := m.Forward(x)
		douts := tensor.Ones(tokens, d)
		dx := m.Backward(douts)
		outs[c.Rank()] = out
		dxs[c.Rank()] = dx
	})
	return outs, dxs
}

// epRun runs blocks token blocks through the layer sharded over an
// ep-rank world, rank r taking blocks r, r+ep, ... one pass each, and
// returns every block's output and input gradient and every expert
// parameter's accumulated gradient by name.
func epRun(ep int, algo A2AAlgo, cfg GateConfig, hidden, tokens, blocks int, seed uint64) (outs, dxs []*tensor.Tensor, grads map[string]*tensor.Tensor) {
	outs = make([]*tensor.Tensor, blocks)
	dxs = make([]*tensor.Tensor, blocks)
	shards := make([][]*nn.Param, ep)
	mpi.NewWorld(ep, distTestTopo()).Run(func(c *mpi.Comm) {
		m := NewDistMoE("moe", tensor.NewRNG(seed), cfg, hidden, c, algo)
		for b := c.Rank(); b < blocks; b += ep {
			outs[b] = m.Forward(epBlock(seed, b, tokens, cfg.Dim))
			dxs[b] = m.Backward(tensor.Ones(tokens, cfg.Dim))
		}
		shards[c.Rank()] = m.ShardedParams()
	})
	grads = map[string]*tensor.Tensor{}
	for _, ps := range shards {
		for _, p := range ps {
			grads[p.Name] = p.G
		}
	}
	return outs, dxs, grads
}

// epBlock is token block b of an ep sweep.
func epBlock(seed uint64, b, tokens, d int) *tensor.Tensor {
	return tensor.Randn(tensor.NewRNG(seed+100+uint64(b)), 1, tokens, d)
}

// TestDistMoEEPSweepBitExact: how many ranks share the experts changes
// no bit the layer computes for a token. At ep 1, 2 and 4, under Direct
// and Hierarchical dispatch, every token block's output and input
// gradient equal ep 1's bitwise, and the outputs are within 1e-4 of the
// per-token reference. Expert weight gradients sum one expert's rows
// in a different order at each ep (one GEMM over every block's rows at
// ep 4, one per block at ep 1), so they agree within 1e-4. The second
// shape puts the grouped expert GEMMs above the tiled-kernel threshold
// (rows·d·hidden ≥ 2^16).
func TestDistMoEEPSweepBitExact(t *testing.T) {
	const blocks, seed = 4, 42
	for _, sh := range []struct {
		name                       string
		tokens, d, experts, hidden int
	}{
		{"small", 6, 8, 8, 16},
		{"tiled", 64, 32, 8, 64},
	} {
		t.Run(sh.name, func(t *testing.T) {
			cfg := gateCfg(sh.d, sh.experts, 2)
			ref := newRefMoE("moe", tensor.NewRNG(seed), cfg, sh.hidden)
			outs1, dxs1, grads1 := epRun(1, Direct, cfg, sh.hidden, sh.tokens, blocks, seed)
			for b, out := range outs1 {
				if want := ref.forward(epBlock(seed, b, sh.tokens, sh.d), false); !out.AllClose(want, 1e-4) {
					t.Fatalf("block %d: output differs from the per-token reference", b)
				}
			}
			for _, ep := range []int{1, 2, 4} {
				for _, algo := range []A2AAlgo{Direct, Hierarchical} {
					outs, dxs, grads := epRun(ep, algo, cfg, sh.hidden, sh.tokens, blocks, seed)
					for b := range outs {
						if !bitEqual(outs[b], outs1[b]) {
							t.Fatalf("ep %d %v block %d: output differs from ep 1", ep, algo, b)
						}
						if !bitEqual(dxs[b], dxs1[b]) {
							t.Fatalf("ep %d %v block %d: input gradient differs from ep 1", ep, algo, b)
						}
					}
					if len(grads) != len(grads1) {
						t.Fatalf("ep %d %v: %d expert parameters, ep 1 has %d", ep, algo, len(grads), len(grads1))
					}
					for name, g := range grads {
						if !g.AllClose(grads1[name], 1e-4) {
							t.Fatalf("ep %d %v: %s gradient differs from ep 1", ep, algo, name)
						}
					}
				}
			}
		})
	}
}

// bitEqual reports whether a and b hold the same float bits.
func bitEqual(a, b *tensor.Tensor) bool {
	if !a.SameShape(b) {
		return false
	}
	for i, v := range a.Data {
		if math.Float32bits(v) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

func TestDistMoEAlgorithmsAgree(t *testing.T) {
	base, baseDx := runDist(t, Direct, 7)
	for _, algo := range []A2AAlgo{Hierarchical, Auto} {
		outs, dxs := runDist(t, algo, 7)
		for rank := range outs {
			if !outs[rank].AllClose(base[rank], 1e-5) {
				t.Fatalf("%v: rank %d forward differs from direct", algo, rank)
			}
			if !dxs[rank].AllClose(baseDx[rank], 1e-5) {
				t.Fatalf("%v: rank %d backward differs from direct", algo, rank)
			}
		}
	}
}

func TestDistMoEParamPartition(t *testing.T) {
	w := mpi.NewWorld(2, nil)
	w.Run(func(c *mpi.Comm) {
		r := tensor.NewRNG(1)
		m := NewDistMoE("moe", r, gateCfg(4, 4, 1), 8, c, Auto)
		if m.LocalExperts != 2 {
			t.Errorf("LocalExperts = %d", m.LocalExperts)
		}
		if len(m.ShardedParams()) != 2*4 { // 2 experts x (2 linears x w+b)
			t.Errorf("sharded params = %d", len(m.ShardedParams()))
		}
		if len(m.Gate.Params()) != 1 {
			t.Errorf("replicated params = %d", len(m.Gate.Params()))
		}
		if got := len(m.Params()); got != len(m.ShardedParams())+len(m.Gate.Params()) {
			t.Errorf("Params() = %d", got)
		}
	})
}

func TestDistMoEIndivisibleExpertsPanics(t *testing.T) {
	w := mpi.NewWorld(3, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Run(func(c *mpi.Comm) {
		r := tensor.NewRNG(1)
		NewDistMoE("moe", r, gateCfg(4, 4, 1), 8, c, Auto)
	})
}

func TestGateNoiseChangesRouting(t *testing.T) {
	r := tensor.NewRNG(8)
	cfg := gateCfg(8, 16, 1)
	cfg.NoiseStd = 5
	g := NewGate("g", r, cfg)
	x := tensor.Randn(tensor.NewRNG(9), 1, 32, 8)
	r1 := g.Forward(x)
	r2 := g.Forward(x)
	same := true
	for t2 := range r1.Assign {
		if r1.Assign[t2][0].Expert != r2.Assign[t2][0].Expert {
			same = false
		}
	}
	if same {
		t.Fatal("high noise produced identical routing twice")
	}
}

func BenchmarkLocalMoEForward(b *testing.B) {
	r := tensor.NewRNG(1)
	cfg := gateCfg(64, 8, 2)
	m := NewLocalMoE("moe", r, cfg, 256)
	x := tensor.Randn(r, 1, 256, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}

func TestRandomRoutingBalancedAndGradFree(t *testing.T) {
	r := tensor.NewRNG(20)
	cfg := gateCfg(8, 4, 2)
	cfg.RandomRouting = true
	m := NewLocalMoE("moe", r, cfg, 16)
	x := tensor.Randn(r, 1, 200, 8)
	out := m.Forward(x)
	if out.Shape[0] != 200 {
		t.Fatalf("shape %v", out.Shape)
	}
	routing := m.LastRouting()
	// Uniform random: each expert should see roughly 200*2/4 = 100
	// assignments (pre-capacity, capacity is loose here).
	for e, cnt := range routing.Counts {
		if cnt < 60 || cnt > 140 {
			t.Fatalf("expert %d count %d far from uniform 100", e, cnt)
		}
	}
	// No gate gradient.
	nn.ZeroGrads(m.Params())
	m.Backward(tensor.Ones(200, 8))
	for _, v := range m.Gate.Proj.Weight.G.Data {
		if v != 0 {
			t.Fatal("random routing produced gate gradients")
		}
	}
	// Experts still receive gradients.
	var expertGrad float32
	for _, e := range m.Experts {
		for _, p := range e.Params() {
			expertGrad += norm2(p.G)
		}
	}
	if expertGrad == 0 {
		t.Fatal("experts received no gradient under random routing")
	}
}

func TestRandomRoutingDistinctExperts(t *testing.T) {
	r := tensor.NewRNG(21)
	cfg := gateCfg(4, 3, 3) // topk == experts: must pick all distinct
	cfg.RandomRouting = true
	g := NewGate("g", r, cfg)
	routing := g.Forward(tensor.Ones(10, 4))
	for t2, as := range routing.Assign {
		seen := map[int]bool{}
		for _, a := range as {
			if seen[a.Expert] {
				t.Fatalf("token %d assigned twice to expert %d", t2, a.Expert)
			}
			seen[a.Expert] = true
		}
	}
}

func TestGradScalePropagates(t *testing.T) {
	// The aux gradient must scale linearly with SetGradScale.
	gradAt := func(scale float32) float32 {
		r := tensor.NewRNG(22)
		cfg := gateCfg(4, 3, 1)
		cfg.AuxLossWeight = 0.5
		m := NewLocalMoE("moe", r, cfg, 8)
		m.SetGradScale(scale)
		x := tensor.Randn(tensor.NewRNG(23), 1, 6, 4)
		m.Forward(x)
		nn.ZeroGrads(m.Params())
		// Zero main-loss gradient isolates the aux contribution.
		m.Backward(tensor.Zeros(6, 4))
		return norm2(m.Gate.Proj.Weight.G)
	}
	g1 := gradAt(1)
	g2 := gradAt(2)
	if g1 == 0 {
		t.Fatal("no aux gradient at scale 1")
	}
	if math.Abs(float64(g2/g1-2)) > 1e-3 {
		t.Fatalf("aux grad did not scale: %v vs %v", g1, g2)
	}
}

func TestZLossValueAndGradient(t *testing.T) {
	r := tensor.NewRNG(24)
	cfg := gateCfg(4, 3, 1)
	cfg.ZLossWeight = 0.5
	m := NewLocalMoE("moe", r, cfg, 8)
	x := tensor.Randn(r, 1, 6, 4)
	w := tensor.Randn(r, 1, 6, 4)

	loss := func() float64 {
		out := m.Forward(x)
		return float64(tensor.Dot(out, w)) + float64(m.AuxLoss())
	}
	nn.ZeroGrads(m.Params())
	base := loss()
	if m.AuxLoss() <= 0 {
		t.Fatal("z-loss did not contribute to aux")
	}
	m.Backward(w.Clone())

	// Numeric check against the gate projection weights.
	p := m.Gate.Proj.Weight
	const h = 1e-4
	for i := 0; i < p.W.Len(); i++ {
		orig := p.W.Data[i]
		p.W.Data[i] = orig + h
		fp := loss()
		p.W.Data[i] = orig - h
		fm := loss()
		p.W.Data[i] = orig
		num := (fp - fm) / (2 * h)
		if math.Abs(num-float64(p.G.Data[i])) > 0.05*math.Max(1, math.Abs(num)) {
			t.Fatalf("z-loss grad[%d] = %v, numeric %v (base %v)", i, p.G.Data[i], num, base)
		}
	}
}

func TestZLossShrinksLogits(t *testing.T) {
	// Training with only the z-loss must drive gate logits toward
	// zero magnitude.
	r := tensor.NewRNG(25)
	cfg := gateCfg(4, 4, 1)
	cfg.ZLossWeight = 1
	m := NewLocalMoE("moe", r, cfg, 8)
	// Start with large gate weights.
	tensor.ScaleInPlace(m.Gate.Proj.Weight.W, 50)
	x := tensor.Randn(tensor.NewRNG(26), 1, 16, 4)
	before := norm2(m.Gate.Proj.Weight.W)
	for step := 0; step < 50; step++ {
		m.Forward(x)
		nn.ZeroGrads(m.Params())
		m.Backward(tensor.Zeros(16, 4)) // only aux/z gradients
		tensor.AXPY(-0.5, m.Gate.Proj.Weight.G, m.Gate.Proj.Weight.W)
	}
	after := norm2(m.Gate.Proj.Weight.W)
	if after >= before {
		t.Fatalf("z-loss did not shrink gate logits: %v -> %v", before, after)
	}
}
