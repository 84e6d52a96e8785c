package parallel

import (
	"fmt"

	"bagualu/internal/nn"
)

// RebalanceExperts runs the load-aware expert migration loop once:
// for every MoE layer it gathers global per-expert token counts (from
// the most recent step), plans a balanced placement, migrates expert
// weights within the expert-parallel group, and refreshes the
// engine's and trainer's parameter partitions. It is a collective —
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
	e.refreshParams()
	return moves, nil
}

// refreshParams rebuilds the dense/expert parameter partitions and
// the trainer's view after expert migration.
func (e *Engine) refreshParams() {
	sharded := map[*nn.Param]bool{}
	for _, m := range e.moeLayers {
		for _, p := range m.ShardedParams() {
			sharded[p] = true
		}
	}
	e.denseParams = e.denseParams[:0]
	e.expertParams = e.expertParams[:0]
	for _, p := range e.Model.Params() {
		if sharded[p] {
			e.expertParams = append(e.expertParams, p)
		} else {
			e.denseParams = append(e.denseParams, p)
		}
	}
	e.Trainer.RefreshParams()
}
