package moe

import (
	"fmt"
	"sort"

	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/tensor"
)

// Shadow experts: the second load-management mechanism from the
// BaGuaLu/FasterMoE lineage, complementing migration. A migrated
// expert moves; a *shadowed* expert is temporarily replicated on
// every rank of the expert-parallel group, so its (hot) traffic never
// enters the all-to-all at all:
//
//   - weights: broadcast from the owner at every forward pass (the
//     replicas are read-only caches of the canonical copy);
//   - compute: each rank applies its local replica to its own tokens;
//   - gradients: reduced back to the owner, who is the only rank that
//     updates the canonical weights (its optimizer state stays
//     intact).
//
// The trade is explicit: per-step broadcast/reduce volume
// (2·|expert| bytes per rank) buys the removal of the hot expert's
// token traffic from the dispatch and combine exchanges. It pays off
// exactly when an expert is hot enough that its token volume exceeds
// its parameter volume.

// SetShadows replicates the given experts on every rank of the
// expert-parallel group. Collective: all ranks must pass the same
// list. Passing nil clears all shadows.
func (m *DistMoE) SetShadows(experts []int) error {
	seen := map[int]bool{}
	for _, e := range experts {
		if e < 0 || e >= m.Cfg.NumExperts {
			return fmt.Errorf("moe: shadow expert %d out of range", e)
		}
		if seen[e] {
			return fmt.Errorf("moe: duplicate shadow expert %d", e)
		}
		seen[e] = true
	}
	list := append([]int(nil), experts...)
	sort.Ints(list)
	m.shadowList = list
	m.shadows = make(map[int]*nn.FeedForward, len(list))
	ordered := make([]*nn.FeedForward, 0, len(list))
	for _, e := range list {
		if m.place.Owner[e] == m.comm.Rank() {
			// The owner's replica IS the canonical expert.
			m.shadows[e] = m.Experts[m.slotOf[e]]
		} else {
			m.shadows[e] = nn.NewFeedForward(fmt.Sprintf("%s.expert%d", m.name, e), tensor.NewRNG(0), m.Cfg.Dim, m.hidden)
		}
		ordered = append(ordered, m.shadows[e])
	}
	// Replicas run as one grouped FFN call per step, in list order.
	m.shadowGroup = nil
	if len(ordered) > 0 {
		m.shadowGroup = nn.NewExpertGroup(ordered)
	}
	m.refreshShadows()
	return nil
}

// refreshShadows broadcasts canonical weights into the replicas; runs
// at the top of every Forward while shadows are active.
func (m *DistMoE) refreshShadows() {
	for _, e := range m.shadowList {
		owner := m.place.Owner[e]
		replica := m.shadows[e]
		for _, p := range replica.Params() {
			var payload []float32
			if m.comm.Rank() == owner {
				payload = p.W.Data
			}
			got := m.comm.Bcast(owner, payload)
			if m.comm.Rank() != owner {
				copy(p.W.Data, got)
			}
		}
	}
}

// reduceShadowGrads sums replica gradients onto the owner's canonical
// expert; non-owner replica gradients are then cleared.
func (m *DistMoE) reduceShadowGrads() {
	for _, e := range m.shadowList {
		owner := m.place.Owner[e]
		replica := m.shadows[e]
		for _, p := range replica.Params() {
			red := m.comm.Reduce(owner, p.G.Data, mpi.OpSum)
			if m.comm.Rank() == owner {
				copy(p.G.Data, red)
			} else {
				p.G.Zero()
			}
		}
	}
}

// isShadowed reports whether expert e currently has local replicas.
func (m *DistMoE) isShadowed(e int) bool {
	_, ok := m.shadows[e]
	return ok
}
