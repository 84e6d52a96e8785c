package parallel

import "fmt"

// RebalanceExperts runs the load-aware expert migration loop once:
// for every MoE layer it gathers global per-expert token counts (from
// the most recent step), plans a balanced placement, migrates expert
// weights within the expert-parallel group, and re-partitions the
// engine's and trainer's parameters. It is a collective —
// every rank must call it at the same point. Returns the total number
// of experts that moved.
func (e *Engine) RebalanceExperts() (int, error) {
	if e.zero != nil {
		return 0, fmt.Errorf("parallel: expert rebalancing is unavailable under the ZeRO-sharded optimizer (moment ranges span data-parallel peers); escalate to rollback instead")
	}
	moves := 0
	for _, m := range e.moeLayers {
		counts := m.GatherExpertCounts(e.Comm)
		plan := m.Placement().Rebalanced(counts)
		moves += len(m.Placement().Moves(plan))
		if err := m.Migrate(plan); err != nil {
			return moves, err
		}
	}
	e.repartitionParams()
	return moves, nil
}
