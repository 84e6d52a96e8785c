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
// Weights AND optimizer state move (migrateExperts), so the loss
// trajectory is unchanged; an optimizer that cannot ship its state is an
// error. Returns without acting when every slot is flagged (nowhere to
// move work) or none is.
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
	_, err := e.migrateExperts("expert mitigation", func(p *moe.Placement, counts []int) *moe.Placement {
		return p.DrainRanks(counts, degradedSlots)
	})
	return err
}
