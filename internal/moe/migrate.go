package moe

import (
	"fmt"
	"sort"

	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/tensor"
)

// OptStateCarrier lets expert migration ship optimizer state (Adam
// moments) alongside the weights of a moved expert, so a rebalance or
// straggler mitigation leaves the training trajectory bit-exactly
// unchanged. Implemented by the train package optimizers;
// any step-count state (Adam bias correction) advances identically on
// every rank and needs no shipping.
type OptStateCarrier interface {
	// State returns the per-parameter state slices (each the same
	// length as the parameter), or nil if none exist yet.
	State(p *nn.Param) [][]float32
	// SetState installs state slices for a parameter.
	SetState(p *nn.Param, state [][]float32)
	// Forget drops any state held for a parameter (its expert left
	// this rank).
	Forget(p *nn.Param)
}

// MigrateOpt applies a new expert placement: every expert whose owner
// changes has its weights shipped point-to-point from the old owner to
// the new one. All ranks of the expert-parallel group must call it with
// an identical plan (it is a collective). When opt is non-nil, each
// moved expert's per-parameter state slices travel in the same frame as
// its weights and are installed on the new owner (and forgotten on the
// old), so the next optimizer step is bit-identical to a run where the
// expert never moved; with nil, only the weights move. The plan may be
// unbalanced (see Placement.Validate); LocalExperts is recomputed.
func (m *DistMoE) MigrateOpt(newPlace *Placement, opt OptStateCarrier) error {
	if newPlace.NumExperts != m.Cfg.NumExperts || newPlace.Ranks != m.comm.Size() {
		return fmt.Errorf("moe: migration plan shape %dx%d does not match %dx%d",
			newPlace.NumExperts, newPlace.Ranks, m.Cfg.NumExperts, m.comm.Size())
	}
	if err := newPlace.Validate(); err != nil {
		return err
	}
	moves := m.place.Moves(newPlace)
	rank := m.comm.Rank()

	// Current experts by global id for quick lookup.
	byGlobal := map[int]*nn.FeedForward{}
	for i, e := range m.localGlobal {
		byGlobal[e] = m.Experts[i]
	}

	// Ship outgoing experts; tag by move index (the move list is
	// identical on every rank, so tags match up). The frame is the
	// flattened weights followed by each parameter's optimizer-state
	// slices; the ints metadata carries the per-parameter slice count
	// so the receiver can reconstruct the framing.
	const migrateTagBase = 1 << 20
	for i, e := range moves {
		oldOwner, newOwner := m.place.Owner[e], newPlace.Owner[e]
		tag := migrateTagBase + i
		if oldOwner == rank {
			ex := byGlobal[e]
			var flat []float32
			var meta []int
			for _, p := range ex.Params() {
				flat = append(flat, p.W.Data...)
			}
			if opt != nil {
				for _, p := range ex.Params() {
					st := opt.State(p)
					meta = append(meta, len(st))
					for _, s := range st {
						flat = append(flat, s...)
					}
					opt.Forget(p)
				}
			}
			m.comm.SendMsg(newOwner, tag, flat, meta)
			delete(byGlobal, e)
		}
		if newOwner == rank {
			flat, meta := m.comm.RecvMsg(oldOwner, tag)
			ex := nn.NewFeedForward(fmt.Sprintf("%s.expert%d", m.name, e), tensor.NewRNG(0), m.Cfg.Dim, m.hidden)
			off := 0
			for _, p := range ex.Params() {
				copy(p.W.Data, flat[off:off+p.W.Len()])
				off += p.W.Len()
			}
			if opt != nil {
				for pi, p := range ex.Params() {
					if pi >= len(meta) {
						return fmt.Errorf("moe: migrated expert %d missing state metadata", e)
					}
					st := make([][]float32, meta[pi])
					for k := range st {
						st[k] = append([]float32(nil), flat[off:off+p.W.Len()]...)
						off += p.W.Len()
					}
					if len(st) > 0 {
						opt.SetState(p, st)
					}
				}
			}
			if off != len(flat) {
				return fmt.Errorf("moe: migrated expert %d payload %d, want %d", e, len(flat), off)
			}
			byGlobal[e] = ex
		}
	}

	// Install the new placement and rebuild the ordered local shard.
	// Ownership may be unbalanced now, so the shard size is whatever
	// the plan assigns this rank.
	m.place = newPlace
	m.rebuildLookups()
	m.LocalExperts = len(m.localGlobal)
	globals := make([]int, 0, len(byGlobal))
	for e := range byGlobal {
		globals = append(globals, e)
	}
	sort.Ints(globals)
	if len(globals) != m.LocalExperts {
		return fmt.Errorf("moe: rank %d holds %d experts after migration, want %d", rank, len(globals), m.LocalExperts)
	}
	m.Experts = m.Experts[:0]
	for _, e := range globals {
		m.Experts = append(m.Experts, byGlobal[e])
	}
	m.dropForwardCaches()
	return nil
}

// ReshardTo rebinds the layer to a different communicator and expert
// placement WITHOUT moving any weights — the recovery path after a
// rank failure, where the old world's data is gone and weights come
// from a checkpoint restore immediately afterwards. Experts this rank
// already owns keep their FeedForward objects (their weights will be
// overwritten by the restore anyway); newly assigned slots get fresh
// ones. Shadows and all forward caches are dropped.
//
// Every surviving rank must call ReshardTo with the shrunk
// communicator and an identical placement over it.
func (m *DistMoE) ReshardTo(newComm *mpi.Comm, newPlace *Placement) error {
	if newPlace.NumExperts != m.Cfg.NumExperts {
		return fmt.Errorf("moe: reshard plan has %d experts, layer has %d", newPlace.NumExperts, m.Cfg.NumExperts)
	}
	if newPlace.Ranks != newComm.Size() {
		return fmt.Errorf("moe: reshard plan spans %d ranks, communicator has %d", newPlace.Ranks, newComm.Size())
	}
	if err := newPlace.Validate(); err != nil {
		return err
	}
	byGlobal := map[int]*nn.FeedForward{}
	for i, e := range m.localGlobal {
		byGlobal[e] = m.Experts[i]
	}
	m.comm = newComm
	m.place = newPlace
	m.rebuildLookups()
	m.LocalExperts = len(m.localGlobal)
	m.Experts = m.Experts[:0]
	for _, e := range m.localGlobal {
		ex := byGlobal[e]
		if ex == nil {
			ex = nn.NewFeedForward(fmt.Sprintf("%s.expert%d", m.name, e), tensor.NewRNG(0), m.Cfg.Dim, m.hidden)
		}
		m.Experts = append(m.Experts, ex)
	}
	// Drop shadows (placement-dependent) and every forward cache.
	m.shadows = nil
	m.shadowList = nil
	m.shadowRefs = nil
	m.shadowOuts = nil
	m.shadowGroup = nil
	m.dropForwardCaches()
	return nil
}

// GatherExpertCounts all-reduces the last routing's per-expert token
// counts over comm, giving every rank the global load picture the
// rebalancer plans from. Returns zeros if no forward pass has run.
func (m *DistMoE) GatherExpertCounts(comm *mpi.Comm) []int {
	counts := make([]float32, m.Cfg.NumExperts)
	if r := m.Gate.routing; r != nil {
		for e, c := range r.Counts {
			counts[e] = float32(c)
		}
	}
	red := comm.AllReduce(counts, mpi.OpSum)
	out := make([]int, len(red))
	for i, v := range red {
		out[i] = int(v)
	}
	return out
}
