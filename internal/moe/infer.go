package moe

import (
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/tensor"
)

// Inference dispatch path. Serving routes top-k like training but
// drops everything training-only: no gate noise, no capacity limit
// (no token is ever dropped at inference), no auxiliary losses, no
// backward caches, no shadow replicas. The distributed variant still
// rides the two-phase flattened Exchange — FP16 codec on
// inter-supernode legs, local experts overlapped with the remote
// receive — because that wire layer is exactly what an MoE serving
// engine needs per decode step.
//
// Numerics are batch-invariant end to end: the gate projection uses
// the naive kernel, softmax and top-k are per-row, expert FFNs run
// through nn's inference forwards, and each token's combine
// accumulates its k expert outputs in a per-token order that does not
// depend on which other tokens share the step. A single decoded token
// therefore produces bitwise the same output as the same token inside
// any prefill batch.

// InferStats describes the expert work of the last Infer call on the
// local rank, for the serving engine's cost model.
type InferStats struct {
	// Rows is the number of token-assignment rows the local experts
	// processed (post-dispatch on the distributed layer).
	Rows int
	// ActiveExperts is how many local experts saw at least one row —
	// the number of expert weight sets the step had to touch.
	ActiveExperts int
	// Flops is the expert forward cost of those rows (2 GEMMs per
	// row: d->hidden, hidden->d).
	Flops float64
	// Charged reports whether Flops was already priced onto the
	// rank's virtual clock (DistMoE does this itself when SimRate is
	// set; LocalMoE leaves pricing to the caller).
	Charged bool
}

func expertFlops(rows, dim, hidden int) float64 {
	return 4 * float64(rows) * float64(dim) * float64(hidden)
}

// InferRoute is the inference gate. It runs the same routing core as
// the training gate (routeRow) in its dropless configuration: top-k
// with normalized combine weights, no noise, no capacity, no
// auxiliary losses — training and serving can no longer disagree on
// what routing means. Assignments are in decreasing-probability order
// per token. ExpertChoice configs fall back to token-choice here:
// expert selection depends on which other tokens share the batch,
// which would break the serving engine's batch-invariance guarantee
// (decode == prefill bitwise).
func (g *Gate) InferRoute(x *tensor.Tensor) [][]Assignment {
	cfg := g.Cfg
	if cfg.RandomRouting {
		panic("moe: InferRoute does not support RandomRouting (training-only ablation)")
	}
	tokens := x.Shape[0]
	probs := tensor.SoftmaxRows(nn.InferLinear(g.Proj, x))
	assign := make([][]Assignment, tokens)
	asBuf := make([]Assignment, tokens*cfg.TopK)
	for t := 0; t < tokens; t++ {
		as := asBuf[t*cfg.TopK : (t+1)*cfg.TopK]
		g.routeRow(probs.Row(t), as, nil, 0)
		assign[t] = as
	}
	return assign
}

// Infer runs the local MoE in inference mode. Stats are recorded with
// Charged=false: the caller owns pricing of single-rank expert
// compute.
func (m *LocalMoE) Infer(x *tensor.Tensor) *tensor.Tensor {
	tokens, d := x.Shape[0], x.Shape[1]
	assign := m.Gate.InferRoute(x)

	gather := make([][]int, m.Cfg.NumExperts) // expert -> token rows
	pos := make([][]int, tokens)              // token,k -> row in expert batch
	rows := 0
	for t := 0; t < tokens; t++ {
		pos[t] = make([]int, len(assign[t]))
		for k, a := range assign[t] {
			pos[t][k] = len(gather[a.Expert])
			gather[a.Expert] = append(gather[a.Expert], t)
			rows++
		}
	}

	outs := make([]*tensor.Tensor, m.Cfg.NumExperts)
	active := 0
	hidden := m.Experts[0].Up.Out
	for e, toks := range gather {
		if len(toks) == 0 {
			continue
		}
		active++
		in := tensor.New(len(toks), d)
		for i, t := range toks {
			copy(in.Row(i), x.Row(t))
		}
		outs[e] = m.Experts[e].Infer(in)
	}

	out := tensor.New(tokens, d)
	for t := 0; t < tokens; t++ {
		row := out.Row(t)
		for k, a := range assign[t] {
			y := outs[a.Expert].Row(pos[t][k])
			for j := range row {
				row[j] += a.Weight * y[j]
			}
		}
	}
	m.inferStats = InferStats{Rows: rows, ActiveExperts: active, Flops: expertFlops(rows, d, hidden), Charged: false}
	return out
}

// LastInferStats returns the expert-work stats of the last Infer call.
func (m *LocalMoE) LastInferStats() InferStats { return m.inferStats }

// NumLocalExperts returns how many experts live on this rank (all of
// them, for the local layer).
func (m *LocalMoE) NumLocalExperts() int { return len(m.Experts) }

// PerExpertParams returns the parameter count of one expert FFN.
func (m *LocalMoE) PerExpertParams() int {
	n := 0
	for _, p := range m.Experts[0].Params() {
		n += p.W.Len()
	}
	return n
}

// Infer runs the distributed MoE in inference mode: gate locally,
// dispatch token rows to expert owners over the two-phase flattened
// exchange, run local experts (overlapped with the remote leg when
// configured), and combine the returned outputs. Ranks with zero
// tokens must still call Infer — the exchange is collective.
//
// When SimRate is set, expert compute is charged to the virtual clock
// here (at the owner rank, where the FLOPs actually land) and the
// recorded stats have Charged=true.
func (m *DistMoE) Infer(x *tensor.Tensor) *tensor.Tensor {
	tokens, d := x.Shape[0], x.Shape[1]
	p := m.comm.Size()
	assign := m.Gate.InferRoute(x)

	// Route per destination, in token order. No drops, no shadows.
	sendOrder := make([][]sendRef, p)
	for t := 0; t < tokens; t++ {
		for k, a := range assign[t] {
			dst := m.ownerOf(a.Expert)
			sendOrder[dst] = append(sendOrder[dst], sendRef{t, k})
		}
	}

	var ord [2][][]rowRef
	ret, _ := m.roundTrip(trip{
		sendOrder: sendOrder,
		stage:     func(sb *mpi.SendBuf) { m.stageTokens(sb, x, sendOrder, assign) },
		ord:       &ord,
		compute: func(_ int, in *tensor.Tensor, off []int) *tensor.Tensor {
			// Per-expert inference forward (batch-invariant, no backward
			// state) over the packed blocks.
			y := tensor.New(in.Shape[0], d)
			for le, f := range m.Experts {
				if lo, hi := off[le], off[le+1]; hi > lo {
					copy(y.RowsView(lo, hi).Data, f.Infer(in.RowsView(lo, hi)).Data)
				}
			}
			return y
		},
	})

	// Combine. Iterating dst then position gives each token a
	// per-token accumulation order fixed by its own experts' owners —
	// independent of batch composition, so decode == prefill bitwise.
	out := tensor.New(tokens, d)
	for dst, refs := range sendOrder {
		for i, ref := range refs {
			a := assign[ref.token][ref.k]
			y := m.legRow(&ret, dst, i, d)
			o := out.Row(ref.token)
			for j := range o {
				o[j] += a.Weight * y[j]
			}
		}
	}
	releaseLegs(&ret)

	rows := phaseRows(ord[0]) + phaseRows(ord[1])
	active := 0
	for le := 0; le < m.LocalExperts; le++ {
		if len(ord[0][le]) > 0 || (ord[1] != nil && len(ord[1][le]) > 0) {
			active++
		}
	}
	m.inferStats = InferStats{
		Rows:          rows,
		ActiveExperts: active,
		Flops:         expertFlops(rows, m.Cfg.Dim, m.hidden),
		Charged:       m.SimRate > 0,
	}
	return out
}

// LastInferStats returns the expert-work stats of the last Infer call.
func (m *DistMoE) LastInferStats() InferStats { return m.inferStats }

// NumLocalExperts returns the size of this rank's expert shard.
func (m *DistMoE) NumLocalExperts() int { return m.LocalExperts }
