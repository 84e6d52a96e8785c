// Package moe implements the Mixture-of-Experts layer family at the
// heart of BaGuaLu: top-k gating with capacity limits and an
// auxiliary load-balancing loss, a local (single-rank) MoE layer, and
// the distributed expert-parallel MoE layer whose dispatch/combine
// runs over the mpi package's all-to-all.
//
// Brain-scale parameter counts come from replicating experts: the
// 174-trillion-parameter configuration in the paper is a modest
// transformer with tens of thousands of experts sharded across
// ~96,000 nodes. Everything in this package is therefore built
// around that sharding.
package moe

import (
	"fmt"
	"math"
	"sort"

	"bagualu/internal/nn"
	"bagualu/internal/tensor"
)

// RouteMode selects the routing discipline of the gate.
type RouteMode int

const (
	// TokenChoice is dropless top-k routing: every token keeps all
	// TopK assignments with full normalized weight — no capacity, no
	// drops, exact per-expert counts carried through the dispatch.
	// The zero value, and the training default.
	TokenChoice RouteMode = iota
	// CapacityDrop is the legacy GShard-style mode: per-expert
	// capacity ceil(cf·T·k/E), tokens beyond it dropped in token
	// order. Kept as an opt-in ablation baseline.
	CapacityDrop
	// ExpertChoice inverts the selection: each expert picks its top-C
	// tokens (C = Capacity(T)) by gate probability, with the raw
	// probability as combine weight. Perfect load balance by
	// construction; a token may land on 0..NumExperts experts.
	ExpertChoice
)

// String names the mode for flags and benchmark labels.
func (m RouteMode) String() string {
	switch m {
	case TokenChoice:
		return "token-choice"
	case CapacityDrop:
		return "capacity-drop"
	case ExpertChoice:
		return "expert-choice"
	default:
		return fmt.Sprintf("RouteMode(%d)", int(m))
	}
}

// ParseRouteMode parses a RouteMode flag value.
func ParseRouteMode(s string) (RouteMode, error) {
	switch s {
	case "token-choice", "dropless", "":
		return TokenChoice, nil
	case "capacity-drop", "capacity":
		return CapacityDrop, nil
	case "expert-choice":
		return ExpertChoice, nil
	}
	return 0, fmt.Errorf("moe: unknown route mode %q", s)
}

// GateConfig parameterizes the router.
type GateConfig struct {
	Dim        int // model dimension
	NumExperts int // total experts (across all ranks)
	TopK       int // experts per token (1 or 2 in the paper's configs)

	// Mode selects the routing discipline. The zero value is
	// TokenChoice: dropless routing with exact counts.
	Mode RouteMode

	// CapacityFactor scales per-expert capacity:
	// capacity = ceil(CapacityFactor * tokens * TopK / NumExperts).
	// Used by CapacityDrop (tokens routed beyond capacity are dropped;
	// the residual connection carries them) and ExpertChoice (C tokens
	// per expert). Ignored — and may be zero — under TokenChoice.
	CapacityFactor float32

	// NoiseStd adds N(0, NoiseStd²) exploration noise to gate logits
	// before top-k selection (noisy gating). Zero disables.
	NoiseStd float32

	// AuxLossWeight is the coefficient of the GShard-style load
	// balance loss: w * E * Σ_e f_e·P̄_e, where f_e is the fraction
	// of tokens whose top-1 choice is e and P̄_e the mean gate
	// probability of e. Zero disables.
	AuxLossWeight float32

	// ZLossWeight is the coefficient of the router z-loss
	// (ST-MoE): w_z · mean_t (logsumexp_e logits_{t,e})², which keeps
	// gate logits small and stabilizes low-precision training. Zero
	// disables.
	ZLossWeight float32

	// RandomRouting replaces the learned gate with uniform-random
	// expert assignment (weights 1/TopK, no gate gradient) — the
	// routing-ablation baseline: perfectly balanced in expectation
	// but content-blind.
	RandomRouting bool
}

// Validate checks the gate configuration.
func (c GateConfig) Validate() error {
	switch {
	case c.Dim <= 0 || c.NumExperts <= 0:
		return fmt.Errorf("moe: non-positive gate dims %+v", c)
	case c.TopK < 1 || c.TopK > c.NumExperts:
		return fmt.Errorf("moe: TopK %d out of range for %d experts", c.TopK, c.NumExperts)
	case c.Mode != TokenChoice && c.CapacityFactor <= 0:
		return fmt.Errorf("moe: capacity factor %v must be positive in %s mode", c.CapacityFactor, c.Mode)
	case c.Mode == ExpertChoice && c.RandomRouting:
		return fmt.Errorf("moe: ExpertChoice and RandomRouting are mutually exclusive")
	}
	return nil
}

// Assignment is one token-to-expert routing decision.
type Assignment struct {
	Expert  int     // expert index in [0, NumExperts)
	Weight  float32 // combine weight ŵ
	Dropped bool    // CapacityDrop only: the expert was over capacity
}

// Routing is the gate's output for a batch of tokens.
type Routing struct {
	// Assign[t] lists the assignments of token t: exactly TopK
	// entries in decreasing-probability order under
	// TokenChoice/CapacityDrop, 0..NumExperts entries in
	// expert-ascending order under ExpertChoice.
	Assign [][]Assignment
	// Counts[e] is the number of tokens routed to expert e (exact in
	// the dropless modes; post-capacity under CapacityDrop). Overflow
	// counts dropped assignments and is zero outside CapacityDrop.
	Counts   []int
	Overflow int
	// AuxLoss is the weighted load-balance loss value for this batch.
	AuxLoss float32
}

// Capacity returns the per-expert slot limit for a batch of tokens.
func (c GateConfig) Capacity(tokens int) int {
	cap := int(math.Ceil(float64(c.CapacityFactor) * float64(tokens) * float64(c.TopK) / float64(c.NumExperts)))
	if cap < 1 {
		cap = 1
	}
	return cap
}

// Gate is the learned router: a linear projection to expert logits
// followed by (noisy) top-k selection with capacity enforcement.
type Gate struct {
	Cfg  GateConfig
	Proj *nn.Linear

	rng *tensor.RNG

	// gradScale multiplies the auxiliary-loss gradient; the trainer
	// sets it to lossScale/accumSteps so the aux gradient matches the
	// scaling of the main loss gradient flowing in through dWeights.
	gradScale float32

	// Cached for backward.
	probs   *tensor.Tensor // [T, E] softmax probabilities
	routing *Routing
	top1Cnt []int     // tokens whose top-1 choice was e (for aux f_e)
	lse     []float32 // per-token logsumexp of the logits (z-loss)
	zloss   float32

	// Reused scratch (the per-token routing loop must not allocate).
	idxBuf []int
}

// NewGate constructs a gate with small-norm initialization (routing
// starts near-uniform, which the load-balance literature recommends).
func NewGate(name string, r *tensor.RNG, cfg GateConfig) *Gate {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	g := &Gate{Cfg: cfg, Proj: nn.NewLinear(name+".proj", r, cfg.Dim, cfg.NumExperts, false), rng: r.Split(), gradScale: 1}
	tensor.ScaleInPlace(g.Proj.Weight.W, 0.1)
	return g
}

// Params returns the gate projection parameters.
func (g *Gate) Params() []*nn.Param { return g.Proj.Params() }

// gateStash is what Gate.Forward leaves for Backward besides its input
// (the projection's cache).
type gateStash struct {
	probs   *tensor.Tensor
	routing *Routing
	top1Cnt []int
	lse     []float32
}

func (g *Gate) stash() gateStash {
	s := gateStash{g.probs, g.routing, g.top1Cnt, g.lse}
	g.forget()
	return s
}

// restore takes a stash back with x, the input of the forward that
// left it.
func (g *Gate) restore(s gateStash, x *tensor.Tensor) {
	g.probs, g.routing, g.top1Cnt, g.lse = s.probs, s.routing, s.top1Cnt, s.lse
	g.Proj.Restore(x)
}

func (g *Gate) forget() {
	g.probs, g.routing, g.top1Cnt, g.lse = nil, nil, nil, nil
	g.Proj.Forget()
}

// SetGradScale sets the multiplier applied to the auxiliary-loss
// gradient in Backward (loss scale × micro-batch weight).
func (g *Gate) SetGradScale(s float32) { g.gradScale = s }

// Forward routes a batch of token embeddings x [T, d] and returns the
// routing decisions. Capacity is enforced in token order (earlier
// tokens win slots), matching the deterministic dispatch the paper
// uses.
func (g *Gate) Forward(x *tensor.Tensor) *Routing {
	cfg := g.Cfg
	tokens := x.Shape[0]
	if cfg.RandomRouting {
		return g.forwardRandom(tokens)
	}
	logits := g.Proj.Forward(x)
	if cfg.NoiseStd > 0 {
		for i := range logits.Data {
			logits.Data[i] += g.rng.Norm() * cfg.NoiseStd
		}
	}
	g.probs = tensor.SoftmaxRows(logits)

	// Router z-loss: penalize large logit magnitudes via the
	// per-token logsumexp.
	g.zloss = 0
	g.lse = nil
	if cfg.ZLossWeight > 0 {
		g.lse = make([]float32, tokens)
		exps := make([]float32, cfg.NumExperts) // SoftmaxRow's output, unused
		var zsum float64
		for t := 0; t < tokens; t++ {
			m, sum := tensor.SoftmaxRow(exps, logits.Row(t))
			l := float32(math.Log(sum)) + m
			g.lse[t] = l
			zsum += float64(l) * float64(l)
		}
		g.zloss = cfg.ZLossWeight * float32(zsum/float64(tokens))
	}

	if cfg.Mode == ExpertChoice {
		r := g.forwardExpertChoice(tokens)
		r.AuxLoss += g.zloss
		g.routing = r
		return r
	}

	r := &Routing{
		Assign: make([][]Assignment, tokens),
		Counts: make([]int, cfg.NumExperts),
	}
	if cap(g.top1Cnt) < cfg.NumExperts {
		g.top1Cnt = make([]int, cfg.NumExperts)
	} else {
		g.top1Cnt = g.top1Cnt[:cfg.NumExperts]
		clear(g.top1Cnt)
	}
	// capacity <= 0 disables dropping: the dropless default.
	capacity := 0
	if cfg.Mode == CapacityDrop {
		capacity = cfg.Capacity(tokens)
	}

	// One flat assignment buffer, subsliced per token (a Routing owns
	// its assignments — callers may hold it across Forward calls — so
	// the buffer is per-call, but it is one allocation, not tokens).
	asBuf := make([]Assignment, tokens*cfg.TopK)
	for t := 0; t < tokens; t++ {
		as := asBuf[t*cfg.TopK : (t+1)*cfg.TopK]
		r.Overflow += g.routeRow(g.probs.Row(t), as, r.Counts, capacity)
		g.top1Cnt[as[0].Expert]++
		r.Assign[t] = as
	}

	// Load-balance auxiliary loss: E * Σ f_e * P̄_e.
	if cfg.AuxLossWeight > 0 {
		var aux float64
		for e := 0; e < cfg.NumExperts; e++ {
			f := float64(g.top1Cnt[e]) / float64(tokens)
			var pbar float64
			for t := 0; t < tokens; t++ {
				pbar += float64(g.probs.Data[t*cfg.NumExperts+e])
			}
			pbar /= float64(tokens)
			aux += f * pbar
		}
		r.AuxLoss = cfg.AuxLossWeight * float32(aux) * float32(cfg.NumExperts)
	}
	r.AuxLoss += g.zloss
	g.routing = r
	return r
}

// routeRow is the routing core shared by the training gate and
// InferRoute: top-k selection over one token's probability row,
// normalized combine weights, and optional capacity enforcement.
// capacity <= 0 means dropless — every assignment kept with full
// weight. counts (when non-nil) receives the exact per-expert counts;
// the return value is the number of dropped assignments.
func (g *Gate) routeRow(row []float32, as []Assignment, counts []int, capacity int) int {
	g.idxBuf = topKIndices(row, g.Cfg.TopK, g.idxBuf[:0])
	var sum float32
	for _, e := range g.idxBuf {
		sum += row[e]
	}
	dropped := 0
	for i, e := range g.idxBuf {
		a := Assignment{Expert: e, Weight: row[e] / sum}
		if capacity > 0 && counts[e] >= capacity {
			a.Dropped = true
			dropped++
		} else if counts != nil {
			counts[e]++
		}
		as[i] = a
	}
	return dropped
}

// forwardExpertChoice implements expert-choice routing over the cached
// g.probs: each expert independently selects its top-C tokens
// (C = Capacity(tokens), clamped to the batch) by gate probability,
// ties broken toward the lower token index, and contributes with the
// raw probability p_{t,e} as combine weight (no normalization — the
// straight expert-choice formulation). Load is perfectly balanced by
// construction, so the GShard auxiliary loss is skipped; per-token
// assignment lists are variable-length, in expert-ascending order so
// the combine order is deterministic.
func (g *Gate) forwardExpertChoice(tokens int) *Routing {
	cfg := g.Cfg
	C := cfg.Capacity(tokens)
	if C > tokens {
		C = tokens
	}
	r := &Routing{
		Assign: make([][]Assignment, tokens),
		Counts: make([]int, cfg.NumExperts),
	}
	// Rank token indices per expert by descending probability.
	idx := make([]int, tokens)
	perTok := make([]int, tokens) // assignments landing on each token
	chosen := make([][]int, cfg.NumExperts)
	for e := 0; e < cfg.NumExperts; e++ {
		for t := range idx {
			idx[t] = t
		}
		col := e
		probs := g.probs
		sort.Slice(idx, func(a, b int) bool {
			pa := probs.Data[idx[a]*cfg.NumExperts+col]
			pb := probs.Data[idx[b]*cfg.NumExperts+col]
			if pa != pb {
				return pa > pb
			}
			return idx[a] < idx[b]
		})
		chosen[e] = append([]int(nil), idx[:C]...)
		r.Counts[e] = C
		for _, t := range idx[:C] {
			perTok[t]++
		}
	}
	// Flat assignment buffer, filled expert-ascending so each token's
	// list comes out in expert order.
	total := cfg.NumExperts * C
	asBuf := make([]Assignment, total)
	off := 0
	for t := 0; t < tokens; t++ {
		r.Assign[t] = asBuf[off : off : off+perTok[t]]
		off += perTok[t]
	}
	for e := 0; e < cfg.NumExperts; e++ {
		for _, t := range chosen[e] {
			r.Assign[t] = append(r.Assign[t], Assignment{
				Expert: e,
				Weight: g.probs.Data[t*cfg.NumExperts+e],
			})
		}
	}
	return r
}

// forwardRandom assigns each token TopK uniformly random distinct
// experts with equal weights; capacity applies only in CapacityDrop
// mode (dropless random routing keeps every assignment).
func (g *Gate) forwardRandom(tokens int) *Routing {
	cfg := g.Cfg
	r := &Routing{
		Assign: make([][]Assignment, tokens),
		Counts: make([]int, cfg.NumExperts),
	}
	capacity := 0
	if cfg.Mode == CapacityDrop {
		capacity = cfg.Capacity(tokens)
	}
	w := 1 / float32(cfg.TopK)
	for t := 0; t < tokens; t++ {
		as := make([]Assignment, cfg.TopK)
		var chosen []int
		for i := 0; i < cfg.TopK; i++ {
			e := g.rng.Intn(cfg.NumExperts)
			for contains(chosen, e) {
				e = g.rng.Intn(cfg.NumExperts)
			}
			chosen = append(chosen, e)
			a := Assignment{Expert: e, Weight: w}
			if capacity > 0 && r.Counts[e] >= capacity {
				a.Dropped = true
				r.Overflow++
			} else {
				r.Counts[e]++
			}
			as[i] = a
		}
		r.Assign[t] = as
	}
	g.routing = r
	g.probs = nil
	return r
}

// Backward receives dL/dŵ for every (token, k) assignment (zero for
// dropped slots is fine — weights of dropped assignments still got
// gradients only if the caller chose so; BaGuaLu zeroes them) and
// returns dL/dx through the gate projection. It also injects the
// auxiliary-loss gradient.
func (g *Gate) Backward(dWeights [][]float32) *tensor.Tensor {
	cfg := g.Cfg
	tokens := len(dWeights)
	if cfg.RandomRouting {
		// Random routing is not differentiable and carries no
		// parameters' worth of gradient; input gradient is zero.
		return tensor.New(tokens, cfg.Dim)
	}
	dprobs := tensor.New(tokens, cfg.NumExperts)

	if cfg.Mode == ExpertChoice {
		// ŵ = p_{t,e} directly (no normalization), so the weight
		// gradient passes straight through to the probability.
		for t := 0; t < tokens; t++ {
			dpRow := dprobs.Row(t)
			for i, a := range g.routing.Assign[t] {
				dpRow[a.Expert] = dWeights[t][i]
			}
		}
	} else {
		for t := 0; t < tokens; t++ {
			as := g.routing.Assign[t]
			row := g.probs.Row(t)
			dpRow := dprobs.Row(t)
			// ŵ_i = p_i / s with s = Σ_{j∈K} p_j:
			// dL/dp_i = (dL/dŵ_i - Σ_j dL/dŵ_j·ŵ_j) / s for i ∈ K.
			var s float32
			for _, a := range as {
				s += row[a.Expert]
			}
			var mix float32
			for i, a := range as {
				mix += dWeights[t][i] * a.Weight
			}
			for i, a := range as {
				dpRow[a.Expert] = (dWeights[t][i] - mix) / s
			}
		}
	}

	// Aux loss: dL_aux/dp_{t,e} = w * E * f_e / T (f treated as
	// constant, the standard straight-through choice). ExpertChoice is
	// balanced by construction and skips the aux loss entirely.
	if cfg.AuxLossWeight > 0 && cfg.Mode != ExpertChoice {
		for e := 0; e < cfg.NumExperts; e++ {
			f := float32(g.top1Cnt[e]) / float32(tokens)
			d := cfg.AuxLossWeight * float32(cfg.NumExperts) * f / float32(tokens) * g.gradScale
			if d == 0 {
				continue
			}
			for t := 0; t < tokens; t++ {
				dprobs.Data[t*cfg.NumExperts+e] += d
			}
		}
	}

	// Softmax jacobian: dlogit_m = p_m (dp_m - Σ_n dp_n p_n).
	dlogits := tensor.New(tokens, cfg.NumExperts)
	tensor.ParallelWork(tokens, cfg.NumExperts, func(lo, hi int) {
		for t := lo; t < hi; t++ {
			p := g.probs.Row(t)
			dp := dprobs.Row(t)
			var dot float64
			for j := range p {
				dot += float64(p[j]) * float64(dp[j])
			}
			out := dlogits.Row(t)
			for j := range p {
				out[j] = p[j] * (dp[j] - float32(dot))
			}
		}
	})
	// z-loss gradient: d/dlogit_e (lse²) = 2·lse·softmax_e.
	if cfg.ZLossWeight > 0 && g.lse != nil {
		coeff := 2 * cfg.ZLossWeight / float32(tokens) * g.gradScale
		for t := 0; t < tokens; t++ {
			p := g.probs.Row(t)
			out := dlogits.Row(t)
			c := coeff * g.lse[t]
			for j := range p {
				out[j] += c * p[j]
			}
		}
	}
	return g.Proj.Backward(dlogits)
}

// topKIndices returns the indices of the k largest values in row, in
// decreasing order, appended to buf (pass buf[:0] to reuse storage).
// k is small (1 or 2 in practice), so selection by repeated scan is
// optimal.
func topKIndices(row []float32, k int, buf []int) []int {
	idx := buf
	for len(idx) < k {
		best := -1
		var bv float32
		for j, v := range row {
			if contains(idx, j) {
				continue
			}
			if best < 0 || v > bv {
				best, bv = j, v
			}
		}
		idx = append(idx, best)
	}
	return idx
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
