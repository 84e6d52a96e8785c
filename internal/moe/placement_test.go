package moe

import (
	"testing"

	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/tensor"
)

func TestBlockPlacement(t *testing.T) {
	p := NewBlockPlacement(8, 4)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Owner[0] != 0 || p.Owner[7] != 3 {
		t.Fatalf("owners %v", p.Owner)
	}
	if got := p.ExpertsOf(1); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("ExpertsOf(1) = %v", got)
	}
}

func TestPlacementValidate(t *testing.T) {
	// Unbalanced ownership is legal (degraded-mode layouts drain ranks
	// to zero experts); only out-of-range owners are rejected.
	p := NewBlockPlacement(4, 2)
	p.Owner[0] = 1 // rank 1 now owns 3, rank 0 owns 1
	if err := p.Validate(); err != nil {
		t.Fatalf("unbalanced placement rejected: %v", err)
	}
	p = NewBlockPlacement(4, 2)
	p.Owner[0] = 5
	if p.Validate() == nil {
		t.Fatal("out-of-range owner accepted")
	}
}

func TestDrainRanks(t *testing.T) {
	p := NewBlockPlacement(8, 4)
	counts := []int{5, 1, 7, 2, 3, 3, 1, 1}
	drained := p.DrainRanks(counts, []bool{false, true, false, false})
	if err := drained.Validate(); err != nil {
		t.Fatal(err)
	}
	for e, r := range drained.Owner {
		if r == 1 {
			t.Fatalf("drained rank still owns expert %d: %v", e, drained.Owner)
		}
		// Experts on healthy ranks must not move.
		if p.Owner[e] != 1 && r != p.Owner[e] {
			t.Fatalf("expert %d moved needlessly from %d to %d", e, p.Owner[e], r)
		}
	}
	if got := len(drained.ExpertsOf(1)); got != 0 {
		t.Fatalf("drained rank owns %d experts", got)
	}
	// Deterministic planning.
	again := p.DrainRanks(counts, []bool{false, true, false, false})
	for e := range drained.Owner {
		if drained.Owner[e] != again.Owner[e] {
			t.Fatalf("nondeterministic plan: %v vs %v", drained.Owner, again.Owner)
		}
	}
	// Zero counts still spread the moving experts instead of piling
	// them on one rank.
	zero := p.DrainRanks(make([]int, 8), []bool{true, true, false, false})
	l2, l3 := len(zero.ExpertsOf(2)), len(zero.ExpertsOf(3))
	if l2+l3 != 8 || l2 != l3 {
		t.Fatalf("zero-count drain unbalanced: rank2=%d rank3=%d", l2, l3)
	}
	// All ranks drained: nowhere to go, placement unchanged.
	stuck := p.DrainRanks(counts, []bool{true, true, true, true})
	for e := range stuck.Owner {
		if stuck.Owner[e] != p.Owner[e] {
			t.Fatal("all-drained plan moved experts")
		}
	}
}

func TestRankLoadsAndImbalance(t *testing.T) {
	p := NewBlockPlacement(4, 2)
	counts := []int{100, 100, 0, 0} // both hot experts on rank 0
	loads := p.RankLoads(counts)
	if loads[0] != 200 || loads[1] != 0 {
		t.Fatalf("loads %v", loads)
	}
	if got := p.Imbalance(counts); got != 2 {
		t.Fatalf("imbalance %v, want 2", got)
	}
	if got := p.Imbalance([]int{0, 0, 0, 0}); got != 1 {
		t.Fatalf("zero-load imbalance %v", got)
	}
}

func TestRebalancedReducesImbalance(t *testing.T) {
	p := NewBlockPlacement(8, 4)
	// Ranks 0 and 1 hold all the heat.
	counts := []int{90, 80, 70, 60, 1, 1, 1, 1}
	before := p.Imbalance(counts)
	q := p.Rebalanced(counts)
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	after := q.Imbalance(counts)
	if after >= before {
		t.Fatalf("rebalance did not help: %v -> %v", before, after)
	}
	// LPT on this instance achieves near-perfect balance.
	if after > 1.3 {
		t.Fatalf("rebalanced imbalance %v still high", after)
	}
}

func TestMovesPlan(t *testing.T) {
	p := NewBlockPlacement(4, 2)
	q := NewBlockPlacement(4, 2)
	if len(p.Moves(q)) != 0 {
		t.Fatal("identical placements report moves")
	}
	q.Owner[0], q.Owner[2] = 1, 0 // swap experts 0 and 2
	moves := p.Moves(q)
	if len(moves) != 2 || moves[0] != 0 || moves[1] != 2 {
		t.Fatalf("moves %v", moves)
	}
}

func TestMigratePreservesOutputs(t *testing.T) {
	// Swap two experts between ranks; forward outputs must be
	// bit-identical before and after, proving the weights moved
	// intact and the dispatch tables follow the placement.
	const P, tokens, d = 4, 6, 8
	outsBefore := make([]*tensor.Tensor, P)
	outsAfter := make([]*tensor.Tensor, P)
	w := mpi.NewWorld(P, distTestTopo())
	w.Run(func(c *mpi.Comm) {
		r := tensor.NewRNG(70)
		m := NewDistMoE("moe", r, gateCfg(d, 8, 2), 16, c, Auto)
		xr := tensor.NewRNG(71 + uint64(c.Rank()))
		x := tensor.Randn(xr, 1, tokens, d)
		outsBefore[c.Rank()] = m.Forward(x)

		newPlace := NewBlockPlacement(8, P)
		newPlace.Owner[0], newPlace.Owner[7] = newPlace.Owner[7], newPlace.Owner[0]
		if err := m.MigrateOpt(newPlace, nil); err != nil {
			t.Error(err)
			panic(err)
		}
		outsAfter[c.Rank()] = m.Forward(x)
	})
	for rank := 0; rank < P; rank++ {
		if !outsBefore[rank].AllClose(outsAfter[rank], 1e-6) {
			t.Fatalf("rank %d: migration changed the model's function", rank)
		}
	}
}

func TestMigrateRejectsBadPlan(t *testing.T) {
	w := mpi.NewWorld(2, nil)
	w.Run(func(c *mpi.Comm) {
		r := tensor.NewRNG(72)
		m := NewDistMoE("moe", r, gateCfg(4, 4, 1), 8, c, Auto)
		wrong := NewBlockPlacement(8, 2)
		if err := m.MigrateOpt(wrong, nil); err == nil {
			t.Error("wrong-shape plan accepted")
		}
		oob := NewBlockPlacement(4, 2)
		oob.Owner[0] = 7
		if err := m.MigrateOpt(oob, nil); err == nil {
			t.Error("out-of-range plan accepted")
		}
	})
}

// An unbalanced migration (draining one rank entirely) must be
// applied: expert counts follow the plan and the layer still computes
// the same function.
func TestMigrateUnbalanced(t *testing.T) {
	const P = 2
	w := mpi.NewWorld(P, nil)
	outsBefore := make([]*tensor.Tensor, P)
	outsAfter := make([]*tensor.Tensor, P)
	w.Run(func(c *mpi.Comm) {
		r := tensor.NewRNG(91)
		m := NewDistMoE("moe", r, gateCfg(8, 4, 2), 16, c, Auto)
		x := tensor.Randn(tensor.NewRNG(5), 1, 6, 8)
		outsBefore[c.Rank()] = m.Forward(x)

		plan := m.Placement().DrainRanks([]int{1, 1, 1, 1}, []bool{true, false})
		if err := m.MigrateOpt(plan, nil); err != nil {
			t.Error(err)
			return
		}
		wantLocal := 0
		if c.Rank() == 1 {
			wantLocal = 4
		}
		if m.LocalExperts != wantLocal {
			t.Errorf("rank %d: LocalExperts=%d want %d", c.Rank(), m.LocalExperts, wantLocal)
		}
		outsAfter[c.Rank()] = m.Forward(x)
	})
	for rank := 0; rank < P; rank++ {
		if !outsBefore[rank].AllClose(outsAfter[rank], 1e-6) {
			t.Fatalf("rank %d: drain migration changed the model's function", rank)
		}
	}
}

func TestGatherExpertCounts(t *testing.T) {
	const P = 2
	w := mpi.NewWorld(P, nil)
	w.Run(func(c *mpi.Comm) {
		r := tensor.NewRNG(73)
		m := NewDistMoE("moe", r, gateCfg(4, 4, 1), 8, c, Auto)
		xr := tensor.NewRNG(74 + uint64(c.Rank()))
		x := tensor.Randn(xr, 1, 10, 4)
		m.Forward(x)
		counts := m.GatherExpertCounts(c)
		total := 0
		for _, n := range counts {
			total += n
		}
		// 10 tokens per rank, top-1, no drops (loose capacity).
		if total != 20 {
			t.Errorf("global count %d, want 20", total)
		}
	})
}

func TestEndToEndRebalanceLoop(t *testing.T) {
	// Skewed routing -> gather counts -> plan -> migrate; rank loads
	// must improve while the model function is unchanged.
	const P, tokens, d = 2, 32, 4
	w := mpi.NewWorld(P, nil)
	w.Run(func(c *mpi.Comm) {
		r := tensor.NewRNG(75)
		cfg := gateCfg(d, 4, 1)
		m := NewDistMoE("moe", r, cfg, 8, c, Auto)
		// Bias the gate so experts 0 and 1 (both on rank 0 under the
		// block layout) share all the traffic: positive-sum tokens go
		// to 0, negative-sum to 1.
		m.Gate.Proj.Weight.W.Zero()
		for i := 0; i < d; i++ {
			m.Gate.Proj.Weight.W.Set(5, i, 0)
			m.Gate.Proj.Weight.W.Set(-5, i, 1)
		}
		xr := tensor.NewRNG(76 + uint64(c.Rank()))
		x := tensor.Uniform(xr, -1.5, 1.5, tokens, d)
		before := m.Forward(x)

		counts := m.GatherExpertCounts(c)
		oldImb := m.Placement().Imbalance(counts)
		plan := m.Placement().Rebalanced(counts)
		if err := m.MigrateOpt(plan, nil); err != nil {
			panic(err)
		}
		newImb := m.Placement().Imbalance(counts)
		if newImb >= oldImb {
			t.Errorf("rebalance did not reduce imbalance: %v -> %v", oldImb, newImb)
		}
		after := m.Forward(x)
		if !before.AllClose(after, 1e-6) {
			t.Error("rebalance changed model outputs")
		}
		nn.ZeroGrads(m.Params())
		m.Backward(tensor.Ones(tokens, d)) // backward still works post-migration
	})
}
