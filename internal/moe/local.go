package moe

import (
	"fmt"

	"bagualu/internal/nn"
	"bagualu/internal/tensor"
)

// LocalMoE is a Mixture-of-Experts layer with all experts resident on
// the local rank. It implements nn.Layer, so it drops into the FFN
// slot of a transformer block. It is both the single-node baseline
// and the per-rank compute kernel of the distributed layer.
type LocalMoE struct {
	Cfg     GateConfig
	Gate    *Gate
	Experts []*nn.FeedForward

	// group runs all experts' token blocks as one batched GEMM call;
	// see nn.ExpertGroup. Built lazily on first Forward.
	group *nn.ExpertGroup

	// Cached per forward call; see localStash.
	routing *Routing
	perTok  [][]slot         // mirror of routing with expert-batch positions
	outputs []*tensor.Tensor // views into the grouped output, per expert
	gst     *nn.GroupState
	slotBuf []slot  // flat backing storage of perTok
	gather  [][]int // expert -> token indices, forward order
	off     []int   // expert block offsets in the flat grouped batch

	// Reused backward scratch; nothing here escapes the layer.
	dwBuf  []float32
	dwPtrs [][]float32

	inferStats InferStats // last Infer call; see infer.go

	wg *nn.WeightGrads // see DeferWeightGrads
}

// slot records where a token's copy landed inside an expert batch.
type slot struct {
	expert  int
	pos     int // row within the expert's gathered batch
	weight  float32
	dropped bool
	shadow  bool // dist-only: handled by a local replica, not the all-to-all
}

// NewLocalMoE builds the gate plus NumExperts feed-forward experts,
// each d -> hidden -> d.
func NewLocalMoE(name string, r *tensor.RNG, cfg GateConfig, hidden int) *LocalMoE {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &LocalMoE{Cfg: cfg, Gate: NewGate(name+".gate", r, cfg)}
	for e := 0; e < cfg.NumExperts; e++ {
		m.Experts = append(m.Experts, nn.NewFeedForward(fmt.Sprintf("%s.expert%d", name, e), r, cfg.Dim, hidden))
	}
	return m
}

// Forward routes tokens to experts and combines their outputs.
func (m *LocalMoE) Forward(x *tensor.Tensor) *tensor.Tensor {
	tokens, d := x.Shape[0], x.Shape[1]
	m.routing = m.Gate.Forward(x)

	// Gather token rows per expert, in token order. The per-token
	// slot slices subslice one flat reused buffer.
	if len(m.gather) != m.Cfg.NumExperts {
		m.gather = make([][]int, m.Cfg.NumExperts)
	}
	gather := m.gather
	for e := range gather {
		gather[e] = gather[e][:0]
	}
	if cap(m.perTok) < tokens {
		m.perTok = make([][]slot, tokens)
	} else {
		m.perTok = m.perTok[:tokens]
	}
	total := 0
	for t := 0; t < tokens; t++ {
		total += len(m.routing.Assign[t])
	}
	if cap(m.slotBuf) < total {
		m.slotBuf = make([]slot, total)
	}
	off := 0
	for t := 0; t < tokens; t++ {
		as := m.routing.Assign[t]
		m.perTok[t] = m.slotBuf[off : off+len(as) : off+len(as)]
		off += len(as)
		for i, a := range as {
			s := slot{expert: a.Expert, weight: a.Weight, dropped: a.Dropped}
			if !a.Dropped {
				s.pos = len(gather[a.Expert])
				gather[a.Expert] = append(gather[a.Expert], t)
			}
			m.perTok[t][i] = s
		}
	}

	// Flatten every expert's batch into one [rows, d] matrix and run
	// all experts through a single grouped FFN call — the kernel
	// dispatch sees the whole group's FLOPs, not one expert at a time.
	if cap(m.off) < m.Cfg.NumExperts+1 {
		m.off = make([]int, m.Cfg.NumExperts+1)
	}
	offs := m.off[:m.Cfg.NumExperts+1]
	rows := 0
	for e, g := range gather {
		offs[e] = rows
		rows += len(g)
	}
	offs[m.Cfg.NumExperts] = rows
	in := tensor.New(rows, d)
	tensor.ParallelRows(m.Cfg.NumExperts, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			base := offs[e]
			for i, t := range gather[e] {
				copy(in.Row(base+i), x.Row(t))
			}
		}
	})
	if m.group == nil {
		m.group = nn.NewExpertGroup(m.Experts)
	}
	y, st := m.group.Forward(in, offs)
	m.gst = st
	if len(m.outputs) != m.Cfg.NumExperts {
		m.outputs = make([]*tensor.Tensor, m.Cfg.NumExperts)
	}
	for e := range m.outputs {
		if offs[e+1] > offs[e] {
			m.outputs[e] = y.RowsView(offs[e], offs[e+1])
		} else {
			m.outputs[e] = nil
		}
	}

	// Combine: out[t] = Σ ŵ_i · y_{e_i}.
	out := tensor.New(tokens, d)
	for t := 0; t < tokens; t++ {
		row := out.Row(t)
		for _, s := range m.perTok[t] {
			if s.dropped {
				continue
			}
			y := m.outputs[s.expert].Row(s.pos)
			for j := range row {
				row[j] += s.weight * y[j]
			}
		}
	}
	return out
}

// Backward propagates gradients to experts, gate, and input.
func (m *LocalMoE) Backward(dout *tensor.Tensor) *tensor.Tensor {
	tokens, d := dout.Shape[0], dout.Shape[1]

	// Gradient w.r.t. combine weights, for the gate; flat reused
	// backing storage, consumed synchronously by Gate.Backward.
	if cap(m.dwPtrs) < tokens {
		m.dwPtrs = make([][]float32, tokens)
	}
	dWeights := m.dwPtrs[:tokens]
	total := 0
	for t := 0; t < tokens; t++ {
		total += len(m.perTok[t])
	}
	if cap(m.dwBuf) < total {
		m.dwBuf = make([]float32, total)
	}
	clear(m.dwBuf[:total])
	off := 0
	// Combine-weight gradients plus the flat, ŵ-scaled output-gradient
	// matrix for the grouped expert backward (row offs[e]+pos mirrors
	// the forward gather order).
	offs := m.gst.Off
	dy := tensor.New(m.gst.Rows(), d)
	for t := 0; t < tokens; t++ {
		dWeights[t] = m.dwBuf[off : off+len(m.perTok[t]) : off+len(m.perTok[t])]
		off += len(m.perTok[t])
		for i, s := range m.perTok[t] {
			if s.dropped {
				continue
			}
			y := m.outputs[s.expert].Row(s.pos)
			g := dout.Row(t)
			dst := dy.Row(offs[s.expert] + s.pos)
			var dw float64
			for j := range g {
				dw += float64(g[j]) * float64(y[j])
				dst[j] = s.weight * g[j]
			}
			dWeights[t][i] = float32(dw)
		}
	}

	// Grouped expert backward, scattering input grads back to tokens.
	dx := tensor.New(tokens, d)
	dxFlat := m.group.Backward(dy, m.gst, m.wg)
	for e, g := range m.gather {
		base := offs[e]
		for i, t := range g {
			dst := dx.Row(t)
			src := dxFlat.Row(base + i)
			for j := range dst {
				dst[j] += src[j]
			}
		}
	}

	// Gate backward adds its input-gradient contribution.
	tensor.AddInPlace(dx, m.Gate.Backward(dWeights))
	return dx
}

// localStash is what LocalMoE.Forward leaves for Backward. The
// per-forward buffers the layer reuses travel with it, so the next
// Forward cannot overwrite them; the experts' GELU output is rebuilt on
// restore.
type localStash struct {
	gate    gateStash
	perTok  [][]slot
	outputs []*tensor.Tensor
	gst     *nn.GroupState
	slotBuf []slot
	gather  [][]int
	off     []int
}

// Stash, Restore and Forget make LocalMoE an nn.Stasher.
func (m *LocalMoE) Stash() any {
	m.gst.DropAct()
	s := &localStash{m.Gate.stash(), m.perTok, m.outputs, m.gst, m.slotBuf, m.gather, m.off}
	m.Forget()
	return s
}

func (m *LocalMoE) Restore(st any, x *tensor.Tensor) {
	s := st.(*localStash)
	m.Gate.restore(s.gate, x)
	m.routing = s.gate.routing
	m.perTok, m.outputs, m.gst, m.slotBuf, m.gather, m.off = s.perTok, s.outputs, s.gst, s.slotBuf, s.gather, s.off
	m.gst.RebuildAct()
}

func (m *LocalMoE) Forget() {
	m.Gate.forget()
	m.routing, m.perTok, m.outputs, m.gst, m.slotBuf, m.gather, m.off = nil, nil, nil, nil, nil, nil, nil
}

// DeferWeightGrads makes Backward record the gate projection's and
// the experts' weight-gradient products into w (nil: run them).
func (m *LocalMoE) DeferWeightGrads(w *nn.WeightGrads) {
	m.wg = w
	m.Gate.Proj.DeferWeightGrads(w)
}

// Params returns gate plus all expert parameters.
func (m *LocalMoE) Params() []*nn.Param {
	ps := m.Gate.Params()
	for _, e := range m.Experts {
		ps = append(ps, e.Params()...)
	}
	return ps
}

// SetGradScale forwards the gradient scale to the gate (see
// Gate.SetGradScale).
func (m *LocalMoE) SetGradScale(s float32) { m.Gate.SetGradScale(s) }

// AuxLoss returns the load-balance loss of the last forward pass.
func (m *LocalMoE) AuxLoss() float32 {
	if m.routing == nil {
		return 0
	}
	return m.routing.AuxLoss
}

// LastRouting exposes the most recent routing decisions (for load
// balance experiments).
func (m *LocalMoE) LastRouting() *Routing { return m.routing }
