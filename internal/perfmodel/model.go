// Package perfmodel projects the reproduction's simulated training step
// to the full New Generation Sunway machine (96,000 nodes / 37M cores),
// which the simulator cannot run. PredictStep walks the step the engine
// runs (walk.go) on the link tables simnet prices; Memory checks the
// per-node budget that decides whether a parameter count fits at all.
package perfmodel

import "fmt"

// ModelSpec describes a MoE-GPT architecture analytically.
type ModelSpec struct {
	Name      string
	Vocab     int
	Dim       int
	Heads     int
	Layers    int
	SeqLen    int
	FFNHidden int

	// MoE shape: every MoEEvery-th block replaces its FFN with an
	// expert pool of NumExperts FFNs of width MoEHidden; 0 disables.
	NumExperts int
	MoEHidden  int
	MoEEvery   int
	TopK       int
}

// Validate checks the specification.
func (s ModelSpec) Validate() error {
	if s.Vocab <= 0 || s.Dim <= 0 || s.Layers <= 0 || s.SeqLen <= 0 || s.FFNHidden <= 0 {
		return fmt.Errorf("perfmodel: non-positive spec %+v", s)
	}
	if s.MoEEvery > 0 && (s.NumExperts <= 0 || s.MoEHidden <= 0 || s.TopK <= 0) {
		return fmt.Errorf("perfmodel: MoE enabled but incomplete: %+v", s)
	}
	return nil
}

// MoELayers returns how many blocks carry an expert pool.
func (s ModelSpec) MoELayers() int {
	n := 0
	for b := 0; b < s.Layers; b++ {
		if s.moeBlock(b) {
			n++
		}
	}
	return n
}

// linearParams counts a Linear(in->out) with bias.
func linearParams(in, out int) int64 { return int64(in)*int64(out) + int64(out) }

// expertParams counts one FFN expert (up + down projections).
func (s ModelSpec) expertParams() int64 {
	return linearParams(s.Dim, s.MoEHidden) + linearParams(s.MoEHidden, s.Dim)
}

// A Unit is a stretch of the backward whose gradients it makes final
// together, by size: the twin of nn.Unit, with the same IDs (a block's
// is its index, its expert pool's Layers+1+index, the head's Layers,
// the embeddings' -1) and the same order in Units.
type Unit struct {
	ID      int
	Block   int   // a block or expert unit's block; -1 for the head and the embeddings
	Experts bool  // the block's expert pool, finished inside its MoE layer's backward
	Params  int64 // parameter elements; an expert unit counts its whole pool
}

// Units lists the units of blocks [lo, hi) in the order a backward
// finishes them, as nn.GPT.Units does: the head (final norm, LM head
// without bias) when the run ends the model; from the last block to the
// first, its expert pool if it has one and the block (two layer norms,
// q/k/v/o, and an expert block's gate projection without bias or any
// other's FFN); the token and positional embeddings when the run starts
// the model.
func (s ModelSpec) Units(lo, hi int) []Unit {
	var us []Unit
	if hi == s.Layers {
		us = append(us, Unit{ID: s.Layers, Block: -1, Params: 2*int64(s.Dim) + int64(s.Dim)*int64(s.Vocab)})
	}
	for b := hi - 1; b >= lo; b-- {
		p := 2*(2*int64(s.Dim)) + 4*linearParams(s.Dim, s.Dim)
		if s.moeBlock(b) {
			us = append(us, Unit{ID: s.Layers + 1 + b, Block: b, Experts: true, Params: int64(s.NumExperts) * s.expertParams()})
			p += int64(s.Dim) * int64(s.NumExperts)
		} else {
			p += linearParams(s.Dim, s.FFNHidden) + linearParams(s.FFNHidden, s.Dim)
		}
		us = append(us, Unit{ID: b, Block: b, Params: p})
	}
	if lo == 0 {
		us = append(us, Unit{ID: -1, Block: -1, Params: int64(s.Vocab)*int64(s.Dim) + int64(s.SeqLen)*int64(s.Dim)})
	}
	return us
}

// moeBlock reports whether block b carries an expert pool.
func (s ModelSpec) moeBlock(b int) bool { return s.MoEEvery > 0 && b%s.MoEEvery == 0 }

// unitFlops prices one token through u as the engine's runner does:
// the forward, 2 FLOPs per active parameter (an expert pool's TopK
// experts) plus a block's attention term, and the weight-gradient half
// of the backward, which is twice the forward.
func (s ModelSpec) unitFlops(u Unit) (fwd, wgrad float64) {
	active := float64(u.Params)
	var quad float64
	switch {
	case u.Experts:
		active = float64(s.TopK) * float64(s.expertParams())
	case u.Block >= 0:
		quad = 4 * float64(s.SeqLen) * float64(s.Dim)
	}
	return 2*active + quad, 2 * active
}

// DenseParams counts every replicated parameter: every unit but the
// expert pools.
func (s ModelSpec) DenseParams() int64 {
	var p int64
	for _, u := range s.Units(0, s.Layers) {
		if !u.Experts {
			p += u.Params
		}
	}
	return p
}

// ExpertParamsTotal counts all expert parameters across all MoE
// layers — the part of the model that scales to trillions.
func (s ModelSpec) ExpertParamsTotal() int64 {
	return int64(s.MoELayers()) * int64(s.NumExperts) * s.expertParams()
}

// TotalParams is the full model size.
func (s ModelSpec) TotalParams() int64 { return s.DenseParams() + s.ExpertParamsTotal() }

// ActiveParamsPerToken counts the parameters a single token actually
// touches (dense + TopK experts per MoE layer); MoE compute scales
// with this, not with TotalParams.
func (s ModelSpec) ActiveParamsPerToken() int64 {
	return s.DenseParams() + int64(s.MoELayers())*int64(s.TopK)*s.expertParams()
}

// FlopsPerToken estimates forward+backward FLOPs per token. The
// standard estimate is 6·N_active (2 for forward, 4 for backward)
// plus the attention quadratic term 12·L·S·d.
func (s ModelSpec) FlopsPerToken() float64 {
	return 6*float64(s.ActiveParamsPerToken()) +
		12*float64(s.Layers)*float64(s.SeqLen)*float64(s.Dim)
}

// String summarizes the spec.
func (s ModelSpec) String() string {
	return fmt.Sprintf("%s[d=%d L=%d E=%dx%d params=%.3gT active=%.3gB]",
		s.Name, s.Dim, s.Layers, s.MoELayers(), s.NumExperts,
		float64(s.TotalParams())/1e12, float64(s.ActiveParamsPerToken())/1e9)
}

// BrainScaleSpecs returns the three model configurations
// reconstructed from the paper's headline numbers: BaGuaLu trained
// MoE models of 1.93T, 14.5T, and 174T parameters. The layer widths
// are plausible M6/CPM-style choices tuned so the analytic totals
// land on the reported counts; the paper's exact hyperparameters are
// not public in the material available to this reproduction.
func BrainScaleSpecs() []ModelSpec {
	return []ModelSpec{
		{
			Name: "BaGuaLu-1.93T", Vocab: 50304, Dim: 2048, Heads: 16,
			Layers: 24, SeqLen: 1024, FFNHidden: 8192,
			NumExperts: 2400, MoEHidden: 8192, MoEEvery: 1, TopK: 1,
		},
		{
			Name: "BaGuaLu-14.5T", Vocab: 50304, Dim: 2048, Heads: 16,
			Layers: 24, SeqLen: 1024, FFNHidden: 8192,
			NumExperts: 18000, MoEHidden: 8192, MoEEvery: 1, TopK: 1,
		},
		{
			// One expert per node on the 96,000-node machine, the
			// arrangement the paper's scale dictates: EP cannot
			// exceed the per-layer expert count.
			Name: "BaGuaLu-174T", Vocab: 50304, Dim: 4096, Heads: 32,
			Layers: 48, SeqLen: 1024, FFNHidden: 16384,
			NumExperts: 96000, MoEHidden: 9216, MoEEvery: 2, TopK: 1,
		},
	}
}
