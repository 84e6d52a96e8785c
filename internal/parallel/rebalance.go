package parallel

import (
	"fmt"

	"bagualu/internal/moe"
)

// RebalanceExperts runs the load-aware expert migration loop once:
// for every MoE layer it gathers global per-expert token counts (from
// the most recent step), plans a balanced placement and migrates the
// moved experts — weights and optimizer state, see migrateExperts —
// within the expert-parallel group. It is a collective — every rank
// must call it at the same point. Returns the total number of experts
// that moved.
func (e *Engine) RebalanceExperts() (int, error) {
	return e.migrateExperts("expert rebalancing", func(p *moe.Placement, counts []int) *moe.Placement {
		return p.Rebalanced(counts)
	})
}

// migrateExperts moves every MoE layer's experts to the placement plan
// picks from the layer's global per-expert token counts, and
// re-partitions the engine's and trainer's parameters. Weights AND
// optimizer state move (moe.MigrateOpt) — under Mixed the FP32 master
// rides as the weights — so the loss trajectory is the one of a run
// that never moved an expert; an optimizer that cannot ship its state
// (ZeRO's scattered moment ranges, LAMB) is an error, returned before
// any rank communicates. what names the caller in that error. Returns
// the number of experts that moved.
func (e *Engine) migrateExperts(what string, plan func(p *moe.Placement, counts []int) *moe.Placement) (int, error) {
	// ShardedAdam deliberately is not an OptStateCarrier: its moment
	// ranges are scattered across the data-parallel group, so a
	// migration cannot ship them. Callers must fall back to rollback
	// there.
	carrier, ok := e.Trainer.Opt.(moe.OptStateCarrier)
	if !ok {
		return 0, fmt.Errorf("parallel: %s cannot move %T state with an expert; escalate to rollback instead", what, e.Trainer.Opt)
	}
	// Migration ships working weights; under Mixed they hold the masters
	// until repartitionParams' cover snapshots the moved ones and rounds
	// every weight back.
	e.Trainer.MP.LoadMasters()
	moves := 0
	for _, m := range e.moeLayers {
		// Counts gathered over the WORLD communicator: every EP group
		// sees the identical load picture and plans the identical
		// placement, preserving DP symmetry.
		counts := m.GatherExpertCounts(e.Comm)
		next := plan(m.Placement(), counts)
		moves += len(m.Placement().Moves(next))
		if err := m.MigrateOpt(next, carrier); err != nil {
			return moves, err
		}
	}
	e.repartitionParams()
	return moves, nil
}
