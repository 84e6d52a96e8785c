// Graceful degradation: the middle tier between "everything healthy"
// and "shrink + rollback". Each step of a tiered fault-tolerant run
// collects the mpi link telemetry, aggregates it hierarchically into
// per-rank slowness scores (internal/health), and — on sustained
// degradation — migrates experts away from the slow ranks so the MoE
// all-to-all stops waiting on them. Migration ships optimizer state
// with the weights, so mitigation leaves the loss trajectory
// bit-exactly unchanged; only the virtual clock improves.
package parallel

import (
	"fmt"

	"bagualu/internal/health"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
)

// collectHealth runs one telemetry round over comm and returns
// per-GLOBAL-rank slowness scores (0 for ranks outside comm, e.g.
// already failed). Collective: every rank of comm must call it.
func collectHealth(w *mpi.World, comm *mpi.Comm) []float64 {
	row := comm.TakeLinkObservations() // indexed by global rank
	sub := make([]float64, comm.Size())
	for q := 0; q < comm.Size(); q++ {
		sub[q] = row[comm.Global(q)]
	}
	scores := health.CollectScores(comm, sub)
	out := make([]float64, w.Size())
	for q, s := range scores {
		out[comm.Global(q)] = s
	}
	return out
}

// Mitigate drains experts away from the flagged expert-parallel slots
// (straggler mitigation, tier 2). degradedSlots is indexed by EP slot
// and must be identical on every rank — slots, not individual ranks,
// because every EP group must install the same placement for the
// data-parallel gradient exchange of expert shards to stay symmetric.
// Weights AND optimizer state move (moe.MigrateOpt) — under Mixed the
// FP32 master rides as the weights — so the loss trajectory is
// unchanged; an optimizer that cannot ship its state (ZeRO's scattered
// moment ranges, LAMB) is an error. Returns without acting when every
// slot is flagged (nowhere to move work) or none is.
func (e *Engine) Mitigate(degradedSlots []bool) error {
	if len(degradedSlots) != e.EP.Size() {
		return fmt.Errorf("parallel: %d degraded slots for EP=%d", len(degradedSlots), e.EP.Size())
	}
	flagged := 0
	for _, d := range degradedSlots {
		if d {
			flagged++
		}
	}
	if flagged == 0 || flagged == len(degradedSlots) {
		return nil
	}
	// ShardedAdam deliberately is not an OptStateCarrier: its moment
	// ranges are scattered across the data-parallel group, so a drain
	// migration cannot ship them. Tiered policies must fall back to
	// rollback there.
	carrier, ok := e.Trainer.Opt.(moe.OptStateCarrier)
	if !ok {
		return fmt.Errorf("parallel: expert mitigation cannot move %T state with an expert; use rollback escalation", e.Trainer.Opt)
	}
	// Migration ships working weights; under Mixed they hold the masters
	// until repartitionParams' cover snapshots the moved ones and rounds
	// every weight back.
	e.Trainer.MP.LoadMasters()
	for _, m := range e.moeLayers {
		// Counts gathered over the WORLD communicator: every EP group
		// sees the identical load picture and plans the identical
		// drain, preserving DP symmetry.
		counts := m.GatherExpertCounts(e.Comm)
		plan := m.Placement().DrainRanks(counts, degradedSlots)
		if err := m.MigrateOpt(plan, carrier); err != nil {
			return err
		}
	}
	e.repartitionParams()
	return nil
}
