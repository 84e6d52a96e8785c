package moe

import (
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/tensor"
)

// Inference dispatch path. Serving routes top-k like training but
// drops everything training-only: no gate noise, no capacity limit
// (no token is ever dropped at inference), no auxiliary losses, no
// backward caches, no shadow replicas. It still rides the two-phase
// flattened Exchange — FP16 codec on inter-supernode legs, local
// experts overlapped with the remote receive — because that wire layer
// is exactly what an MoE serving engine needs per decode step; on one
// rank the exchange is a self copy.
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
	// processed (post-dispatch).
	Rows int
	// ActiveExperts is how many local experts saw at least one row —
	// the number of expert weight sets the step had to touch.
	ActiveExperts int
	// Flops is the expert forward cost of those rows (2 GEMMs per
	// row: d->hidden, hidden->d).
	Flops float64
	// Charged reports whether Flops was already priced onto the
	// rank's virtual clock: the layer does so itself when SimRate is
	// set, and leaves it to the caller when SimRate is unset.
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

// Infer runs the MoE layer in inference mode: gate locally,
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
	assign := m.Gate.InferRoute(x)

	// Route per destination, in token order. No drops, no shadows.
	sendOrder := m.sendLists(assign, func(Assignment) bool { return true })

	var ord [2][][]rowRef
	ret, _ := m.roundTrip(trip{
		sendOrder: sendOrder,
		stage:     func(sb *mpi.SendBuf) { m.stageTokens(sb, x, sendOrder, assign) },
		ord:       &ord,
		compute: func(_ int, in *tensor.Tensor, off []int) *tensor.Tensor {
			// Per-expert inference forward (batch-invariant, no backward
			// state) over the packed blocks, each block's output written
			// over the rows it read.
			for le, f := range m.Experts {
				if lo, hi := off[le], off[le+1]; hi > lo {
					copy(in.Data[lo*d:], f.Infer(in.RowsView(lo, hi)).Data)
				}
			}
			return in
		},
	})

	// Combine. Iterating dst then position gives each token a
	// per-token accumulation order fixed by its own experts' owners —
	// independent of batch composition, so decode == prefill bitwise.
	out := tensor.New(tokens, d)
	for dst, refs := range sendOrder {
		for i, ref := range refs {
			tensor.Axpy(out.Row(ref.token), m.legRow(&ret, dst, i, d), assign[ref.token][ref.k].Weight)
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
