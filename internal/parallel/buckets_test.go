package parallel

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/parallel/layout"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/train"
)

// checkBuckets reports how e's gradient groups fail to cut its owned
// parameters: every owned parameter in exactly one group and no other,
// dense ones reduced over the stage and expert shards over the
// data-parallel communicator, groups in the order a backward completes
// their blocks — the head, then the blocks from last to first, a block's
// dense group ahead of its expert group — and each issued by a unit of
// the rank's current chunks whose parameters it holds: a dense group by
// its own unit (block 0's by the embeddings, whose parameters it holds
// too), an expert group by its MoE block's expert unit. A group left
// over from an earlier partition holds other parameters than its unit.
func checkBuckets(e *Engine) error {
	sharded := map[*nn.Param]bool{}
	for _, m := range e.MoELayers() {
		for _, p := range m.ShardedParams() {
			sharded[p] = true
		}
	}
	units := map[int]nn.Unit{}
	stage := e.Strategy.Coord(layout.AxisPipe, e.Comm.Rank())
	for v := 0; v < e.Strategy.VPP(); v++ {
		c := e.part[v*e.Strategy.PP()+stage]
		for _, u := range e.Model.Units(c.Lo, c.Hi) {
			units[u.ID] = u
		}
	}
	seen := map[*nn.Param]int{}
	prev, prevExperts := len(e.Model.Blocks)+1, false
	for i, g := range e.groups {
		u, ok := units[g.at.ID]
		if !ok {
			return fmt.Errorf("group %d is issued by unit %d, which no chunk of the rank holds", i, g.at.ID)
		}
		blk, want := u.Block, u.Params
		switch {
		case u.ID == nn.EmbedUnit:
			blk, want = 0, append(slices.Clone(u.Params), units[0].Params...)
		case blk < 0:
			blk = len(e.Model.Blocks) // the head
		case u.Experts:
			if _, ok := e.Model.Blocks[blk].FFN.(nn.ExpertReporter); !ok {
				return fmt.Errorf("group %d holds expert shards of block %d, which has no experts", i, blk)
			}
		}
		if len(g.Params) == 0 || !slices.Equal(g.Params, want) {
			return fmt.Errorf("group %d holds %d parameters, not the %d of its unit %d", i, len(g.Params), len(want), u.ID)
		}
		if blk > prev || blk == prev && (prevExperts || !u.Experts) {
			return fmt.Errorf("group %d (block %d, experts %v) comes after block %d's (experts %v)", i, blk, u.Experts, prev, prevExperts)
		}
		prev, prevExperts = blk, u.Experts
		for _, p := range g.Params {
			seen[p]++
			want, where := e.Stage, "the stage"
			if sharded[p] {
				want, where = e.DP, "the data-parallel group"
			}
			if g.Comm != want {
				return fmt.Errorf("group %d reduces %s off %s", i, p.Name, where)
			}
		}
	}
	for _, p := range e.Trainer.Params() {
		if seen[p] != 1 {
			return fmt.Errorf("owned %s is in %d groups", p.Name, seen[p])
		}
		delete(seen, p)
	}
	for p := range seen {
		return fmt.Errorf("a group holds %s, which the rank does not own", p.Name)
	}
	return nil
}

// started counts the step's syncs issued so far.
func started(e *Engine) int {
	n := 0
	for _, r := range e.syncs {
		if r != nil {
			n++
		}
	}
	return n
}

// issueWatch records, over one step, which units the runner reported,
// when, and what each issued: the step's syncs it added and a copy of
// the gradients of the groups it issued, taken as they left.
type issueWatch struct {
	e      *Engine
	order  []int
	clock  map[int]float64
	issued map[int]int
	grads  map[*nn.Param][]float32
	hook   map[*nn.Param][]float32 // the same gradients as the sync hook found them
}

// watchIssues wraps e's runner and sync hook for the next step.
func watchIssues(e *Engine) *issueWatch {
	w := &issueWatch{e: e, clock: map[int]float64{}, issued: map[int]int{},
		grads: map[*nn.Param][]float32{}, hook: map[*nn.Param][]float32{}}
	fin, sync := e.Trainer.Runner.Finished, e.Trainer.PostBackward
	e.Trainer.Runner.Finished = func(u int) {
		n := started(e)
		fin(u)
		w.order = append(w.order, u)
		w.clock[u], w.issued[u] = e.Comm.Now(), started(e)-n
		for _, g := range e.groups {
			if g.at.ID == u {
				for _, p := range g.Params {
					w.grads[p] = slices.Clone(p.G.Data)
				}
			}
		}
	}
	e.Trainer.PostBackward = func(m train.Metrics) float32 {
		for p := range w.grads {
			w.hook[p] = slices.Clone(p.G.Data)
		}
		e.Trainer.Runner.Finished, e.Trainer.PostBackward = fin, sync
		return sync(m)
	}
	return w
}

// check reports how the watched step failed to issue e's groups: each
// group's unit reported once and issuing exactly its groups, an expert
// unit before its block's unit, and no gradient changed between its
// group's issue and the sync hook — a unit reported before its
// gradients were final (an earlier micro-batch's backward, the shadow
// replicas' gradients not yet reduced onto the owner) changes them.
func (w *issueWatch) check() error {
	e := w.e
	pos := map[int]int{}
	for i, u := range w.order {
		if _, dup := pos[u]; dup {
			return fmt.Errorf("unit %d reported twice in one step", u)
		}
		pos[u] = i
	}
	for i, g := range e.groups {
		u := g.at.ID
		p, ok := pos[u]
		if !ok {
			return fmt.Errorf("group %d: unit %d never reported", i, u)
		}
		if blk, ok := pos[g.at.Block]; g.at.Experts && (!ok || p > blk) {
			return fmt.Errorf("group %d: expert unit %d reported after its block's unit %d", i, u, g.at.Block)
		}
		want := 0
		for _, h := range e.groups {
			if h.at.ID == u {
				want++
			}
		}
		if w.issued[u] != want {
			return fmt.Errorf("unit %d issued %d syncs, not %d", u, w.issued[u], want)
		}
		for _, par := range g.Params {
			if !slices.Equal(w.grads[par], w.hook[par]) {
				return fmt.Errorf("group %d: %s changed after unit %d issued its sync", i, par.Name, u)
			}
		}
	}
	return nil
}

// TestGradBucketsPartitionOwned: after every (re)partition — NewEngine
// on flat, pipelined, interleaved and one-rank ZeRO layouts, Reform onto
// another grid, Mitigate and RebalanceExperts after a migration — the
// gradient buckets cut exactly the parameters the rank owns, each on
// its communicator, and every step issues each group once, from its own
// unit, after its gradients are final: an MoE block's expert group
// before the block's unit, on the step's last micro-batch (Accum 2 and
// 3), after shadow replicas' gradients have reached their owners.
func TestGradBucketsPartitionOwned(t *testing.T) {
	type change struct {
		name string
		do   func(e *Engine, c *mpi.Comm) error
	}
	rebalance := change{"rebalance", func(e *Engine, _ *mpi.Comm) error { _, err := e.RebalanceExperts(); return err }}
	for _, row := range []struct {
		name  string
		strat Strategy
		mc    ModelConfig
		accum int
		zero  bool
		then  []change
	}{
		{"dp2xep2", Strategy{DataParallel: 2, ExpertParallel: 2}, tinyModelCfg(1), 0, false, []change{rebalance}},
		{"dp1xep4_mitigate", Strategy{DataParallel: 1, ExpertParallel: 4}, tinyModelCfg(1), 0, false, []change{
			{"mitigate", func(e *Engine, _ *mpi.Comm) error { return e.Mitigate([]bool{true, false, false, false}) }},
		}},
		{"dp2xep2_reform_pp2", Strategy{DataParallel: 2, ExpertParallel: 2}, pipeModelCfg(4), 2, true, []change{
			{"reform", func(e *Engine, c *mpi.Comm) error {
				return e.Reform(c, Strategy{DataParallel: 1, ExpertParallel: 2, Pipeline: 2})
			}},
		}},
		{"pp2xep2_dense_every2", Strategy{DataParallel: 1, ExpertParallel: 2, Pipeline: 2}, func() ModelConfig {
			mc := pipeModelCfg(4)
			mc.MoEEvery = 2
			return mc
		}(), 2, false, nil},
		{"pp2v2xep2", Strategy{DataParallel: 1, ExpertParallel: 2, Pipeline: 2, Virtual: 2}, pipeModelCfg(4), 2, false, nil},
		{"zero_one_rank", Strategy{DataParallel: 1, ExpertParallel: 1}, tinyModelCfg(1), 0, true, nil},
		{"zero_dp2xep2", Strategy{DataParallel: 2, ExpertParallel: 2}, tinyModelCfg(1), 0, true, nil},
		{"dp2xep2_accum3_shadows", Strategy{DataParallel: 2, ExpertParallel: 2}, tinyModelCfg(1), 3, false, []change{
			{"shadows", func(e *Engine, _ *mpi.Comm) error {
				for _, m := range e.MoELayers() {
					if err := m.SetShadows([]int{0, 3}); err != nil {
						return err
					}
				}
				return nil
			}},
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			tc := tinyTrainCfg()
			tc.Accum = row.accum
			errs := make([]error, row.strat.Size())
			w := mpi.NewWorld(row.strat.Size(), simnet.New(sunway.TestMachine(2, 2), 1))
			w.Run(func(c *mpi.Comm) {
				e, err := NewEngine(c, row.strat, row.mc, tinyCorpusCfg(), tc, train.OptimizerFactory(row.zero, 0)(), 11)
				if err != nil {
					panic(err)
				}
				fail := func(when string, err error) {
					if err != nil && errs[c.Rank()] == nil {
						errs[c.Rank()] = fmt.Errorf("%s: %w", when, err)
					}
				}
				step := func(when string) {
					w := watchIssues(e)
					e.Step()
					fail(when, w.check())
				}
				fail("NewEngine", checkBuckets(e))
				step("first step")
				step("second step")
				for _, ch := range row.then {
					fail(ch.name, ch.do(e, c))
					fail("after "+ch.name, checkBuckets(e))
					step("step after " + ch.name)
				}
			})
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
		})
	}
}

// issueAtBlockEnd moves every expert group's issue back to the unit of
// its block's dense group, just ahead of it, where the engine issued it
// before MoE layers reported their experts from inside the backward.
func issueAtBlockEnd(e *Engine) {
	for i, g := range e.groups {
		if g.at.Experts {
			e.groups[i].at = e.groups[i-1].at
		}
	}
}

// TestExpertGroupsLeaveInsideBackward: on W2's shape (dp2×ep4 over four
// supernodes, Mixed, FP16 wire with overlap) each MoE block's expert
// group is issued from inside the block's backward: its request starts
// on a clock that stands before the block's unit finishes, with the
// block's return leg, gate and attention backward still to run. Every
// step's loss, aux loss and gradient norm keep the bits of a run that
// issues the group at the block's end, and every rank's weights hash
// too; only the clock moves.
func TestExpertGroupsLeaveInsideBackward(t *testing.T) {
	s := goldenShapes()[0]
	const seed = 1
	m := sunway.TestMachine(s.supernodes, s.nodesPerSN)
	rate := m.NodeFlops(s.tc.Precision) * 0.3 / float64(s.ranksPerNode)
	mc := s.mc
	mc.MoESimFLOPS = rate
	corpus := tinyCorpusCfg()
	corpus.Vocab, corpus.SeqLen, corpus.Seed = mc.GPT.Vocab, mc.GPT.SeqLen, seed*7919+17
	run := func(atBlockEnd bool) (stats []StepStats, hashes []uint64) {
		ranks := s.strat.Size()
		errs, hashes := make([]error, ranks), make([]uint64, ranks)
		mpi.NewWorld(ranks, simnet.New(m, s.ranksPerNode)).Run(func(c *mpi.Comm) {
			e, err := NewEngine(c, s.strat, mc, corpus, s.tc, train.OptimizerFactory(s.zero, 0)(), seed)
			if err != nil {
				panic(err)
			}
			e.SetComputeRate(rate)
			if atBlockEnd {
				issueAtBlockEnd(e)
			}
			fail := func(err error) {
				if err != nil && errs[c.Rank()] == nil {
					errs[c.Rank()] = err
				}
			}
			for i := 0; i < s.steps; i++ {
				w := watchIssues(e)
				st := e.Step()
				if c.Rank() == 0 {
					stats = append(stats, st)
				}
				fail(w.check())
				for k, g := range e.groups {
					if !g.at.Experts {
						continue
					}
					if u, end := g.at.ID, e.groups[k-1].at.ID; !(w.clock[u] < w.clock[end]) {
						fail(fmt.Errorf("step %d: expert unit %d issued at %v, its block's dense group at unit %d's finish at %v",
							i, u, w.clock[u], end, w.clock[end]))
					}
				}
			}
			hashes[c.Rank()] = weightsHash(e)
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("block end %v, rank %d: %v", atBlockEnd, r, err)
			}
		}
		return stats, hashes
	}
	got, gotHash := run(false)
	want, wantHash := run(true)
	var simGot, simWant float64
	for i := range got {
		g, w := got[i], want[i]
		if math.Float32bits(g.Loss) != math.Float32bits(w.Loss) || math.Float32bits(g.AuxLoss) != math.Float32bits(w.AuxLoss) ||
			math.Float32bits(g.GradNorm) != math.Float32bits(w.GradNorm) {
			t.Fatalf("step %d: loss %v aux %v gnorm %v, issued at the block's end %v %v %v",
				i, g.Loss, g.AuxLoss, g.GradNorm, w.Loss, w.AuxLoss, w.GradNorm)
		}
		simGot, simWant = simGot+g.SimTime, simWant+w.SimTime
	}
	if !slices.Equal(gotHash, wantHash) {
		t.Fatalf("weights hashes %x, issued at the block's end %x", gotHash, wantHash)
	}
	t.Logf("rank 0 sim time over %d steps: %.4g s issued inside the backward, %.4g s at the block's end", len(got), simGot, simWant)
}
