package moe

import (
	"fmt"
	"sort"
)

// Placement maps every expert to its owner rank. The default is the
// contiguous block layout (expert e on rank e/LocalExperts), but
// skewed workloads concentrate hot experts on few ranks; BaGuaLu's
// lineage (FasterMoE) rebalances by migrating experts between ranks.
// Placement is the pure planning half of that mechanism; DistMoE's
// MigrateOpt applies a plan by actually moving the weights.
type Placement struct {
	NumExperts int
	Ranks      int
	Owner      []int // expert -> rank
}

// NewBlockPlacement returns the contiguous default layout.
func NewBlockPlacement(numExperts, ranks int) *Placement {
	if numExperts%ranks != 0 {
		panic(fmt.Sprintf("moe: %d experts not divisible by %d ranks", numExperts, ranks))
	}
	p := &Placement{NumExperts: numExperts, Ranks: ranks, Owner: make([]int, numExperts)}
	le := numExperts / ranks
	for e := range p.Owner {
		p.Owner[e] = e / le
	}
	return p
}

// Validate checks that every expert is assigned to a rank inside the
// group. Ownership may be unbalanced: the dispatch layout addresses
// experts by (owner, local slot), so ranks can own any number of
// experts — including zero, the degraded-mode layout that drains work
// away from a straggler.
func (p *Placement) Validate() error {
	if len(p.Owner) != p.NumExperts {
		return fmt.Errorf("moe: placement has %d owners for %d experts", len(p.Owner), p.NumExperts)
	}
	for e, r := range p.Owner {
		if r < 0 || r >= p.Ranks {
			return fmt.Errorf("moe: expert %d assigned to invalid rank %d", e, r)
		}
	}
	return nil
}

// ExpertsOf lists the experts owned by rank, ascending.
func (p *Placement) ExpertsOf(rank int) []int {
	var out []int
	for e, r := range p.Owner {
		if r == rank {
			out = append(out, e)
		}
	}
	return out
}

// RankLoads sums per-expert token counts into per-rank loads.
func (p *Placement) RankLoads(expertCounts []int) []int {
	loads := make([]int, p.Ranks)
	for e, c := range expertCounts {
		loads[p.Owner[e]] += c
	}
	return loads
}

// Imbalance returns max(rank load) / mean(rank load); 1.0 is perfect.
func (p *Placement) Imbalance(expertCounts []int) float64 {
	loads := p.RankLoads(expertCounts)
	total, max := 0, 0
	for _, l := range loads {
		total += l
		if l > max {
			max = l
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(p.Ranks)
	return float64(max) / mean
}

// Rebalanced plans a new balanced placement from observed per-expert
// token counts using greedy LPT (longest-processing-time) bin
// packing: experts are sorted by load and each is assigned to the
// currently lightest rank that still has a free slot. The result
// keeps exactly NumExperts/Ranks experts per rank so the dispatch
// layout is unchanged — only *which* experts live where moves.
func (p *Placement) Rebalanced(expertCounts []int) *Placement {
	if len(expertCounts) != p.NumExperts {
		panic(fmt.Sprintf("moe: %d counts for %d experts", len(expertCounts), p.NumExperts))
	}
	le := p.NumExperts / p.Ranks
	order := make([]int, p.NumExperts)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if expertCounts[order[a]] != expertCounts[order[b]] {
			return expertCounts[order[a]] > expertCounts[order[b]]
		}
		return order[a] < order[b]
	})
	loads := make([]int, p.Ranks)
	slots := make([]int, p.Ranks)
	out := &Placement{NumExperts: p.NumExperts, Ranks: p.Ranks, Owner: make([]int, p.NumExperts)}
	for _, e := range order {
		best := -1
		for r := 0; r < p.Ranks; r++ {
			if slots[r] >= le {
				continue
			}
			if best < 0 || loads[r] < loads[best] {
				best = r
			}
		}
		out.Owner[e] = best
		loads[best] += expertCounts[e]
		slots[best]++
	}
	return out
}

// DrainRanks plans a degraded-mode placement that moves every expert
// off the drained ranks (straggler mitigation): experts already on
// healthy ranks stay put (minimizing weight movement), and experts
// owned by drained ranks are reassigned greedily by descending load
// to the currently lightest healthy rank. Effective loads are token
// counts plus one per expert, so all-zero counts (no routing yet)
// still spread experts evenly; the plan is deterministic either way.
// If every rank is drained there is nowhere to move work; the current
// placement is returned unchanged.
func (p *Placement) DrainRanks(expertCounts []int, drain []bool) *Placement {
	if len(expertCounts) != p.NumExperts {
		panic(fmt.Sprintf("moe: %d counts for %d experts", len(expertCounts), p.NumExperts))
	}
	if len(drain) != p.Ranks {
		panic(fmt.Sprintf("moe: %d drain flags for %d ranks", len(drain), p.Ranks))
	}
	healthy := 0
	for _, d := range drain {
		if !d {
			healthy++
		}
	}
	if healthy == 0 {
		return &Placement{NumExperts: p.NumExperts, Ranks: p.Ranks, Owner: append([]int(nil), p.Owner...)}
	}
	out := &Placement{NumExperts: p.NumExperts, Ranks: p.Ranks, Owner: append([]int(nil), p.Owner...)}
	loads := make([]int, p.Ranks)
	var moving []int
	for e, r := range p.Owner {
		if drain[r] {
			moving = append(moving, e)
		} else {
			loads[r] += expertCounts[e] + 1
		}
	}
	sort.Slice(moving, func(a, b int) bool {
		if expertCounts[moving[a]] != expertCounts[moving[b]] {
			return expertCounts[moving[a]] > expertCounts[moving[b]]
		}
		return moving[a] < moving[b]
	})
	for _, e := range moving {
		best := -1
		for r := 0; r < p.Ranks; r++ {
			if drain[r] {
				continue
			}
			if best < 0 || loads[r] < loads[best] {
				best = r
			}
		}
		out.Owner[e] = best
		loads[best] += expertCounts[e] + 1
	}
	return out
}

// Moves lists the experts whose owner differs between p and q —
// the migration plan's transfer set.
func (p *Placement) Moves(q *Placement) []int {
	var moves []int
	for e := range p.Owner {
		if p.Owner[e] != q.Owner[e] {
			moves = append(moves, e)
		}
	}
	return moves
}
