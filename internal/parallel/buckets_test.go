package parallel

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/train"
)

// checkBuckets reports how e's gradient buckets fail to cut its owned
// parameters: every owned parameter in exactly one bucket and no other,
// dense ones reduced over the stage and expert shards over the
// data-parallel communicator, buckets in the order a backward finishes
// them, each found again from the unit that completes it. A dense group
// is issued by its bucket's unit, an expert group by its MoE block's
// expert unit, and every unit that maps to a bucket issues one of its
// groups — a mapping left over from an earlier partition does not.
func checkBuckets(e *Engine) error {
	sharded := e.shardedSet()
	seen := map[*nn.Param]int{}
	prev := e.Model.HeadUnit() + 1
	groups := 0
	for k, b := range e.buckets {
		if b.last >= prev {
			return fmt.Errorf("bucket %d completes at unit %d after bucket %d's %d", k, b.last, k-1, prev)
		}
		prev = b.last
		if e.bucketOf[b.last+1] != k {
			return fmt.Errorf("unit %d maps to bucket %d, not %d", b.last, e.bucketOf[b.last+1], k)
		}
		if len(b.at) != len(b.groups) || b.first != groups {
			return fmt.Errorf("bucket %d: %d issue units for %d groups, first group %d of %d before it", k, len(b.at), len(b.groups), b.first, groups)
		}
		groups += len(b.groups)
		for j, g := range b.groups {
			if len(g.Params) == 0 {
				return fmt.Errorf("bucket %d carries an empty group", k)
			}
			for _, p := range g.Params {
				seen[p]++
				want, where := e.Stage, "the stage"
				if sharded[p] {
					want, where = e.DP, "the data-parallel group"
				}
				if g.Comm != want {
					return fmt.Errorf("bucket %d reduces %s off %s", k, p.Name, where)
				}
			}
			want := b.last
			if sharded[g.Params[0]] {
				blk := max(b.last, 0)
				if _, ok := e.Model.Blocks[blk].FFN.(nn.ExpertReporter); !ok {
					return fmt.Errorf("bucket %d holds expert shards of block %d, which has no experts", k, blk)
				}
				want = e.Model.ExpertUnit(blk)
			}
			if b.at[j] != want {
				return fmt.Errorf("bucket %d group %d is issued by unit %d, not %d", k, j, b.at[j], want)
			}
			if e.bucketOf[want+1] != k {
				return fmt.Errorf("unit %d issues bucket %d's group %d but maps to bucket %d", want, k, j, e.bucketOf[want+1])
			}
		}
	}
	if groups != e.groups {
		return fmt.Errorf("%d groups in the buckets, the engine counts %d", groups, e.groups)
	}
	for i, k := range e.bucketOf {
		if k >= 0 && (k >= len(e.buckets) || !slices.Contains(e.buckets[k].at, i-1)) {
			return fmt.Errorf("unit %d maps to bucket %d, which it issues no group of", i-1, k)
		}
	}
	for _, p := range e.Trainer.Params() {
		if seen[p] != 1 {
			return fmt.Errorf("owned %s is in %d buckets", p.Name, seen[p])
		}
		delete(seen, p)
	}
	for p := range seen {
		return fmt.Errorf("bucket holds %s, which the rank does not own", p.Name)
	}
	return nil
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
		n := len(e.syncs)
		fin(u)
		w.order = append(w.order, u)
		w.clock[u], w.issued[u] = e.Comm.Now(), len(e.syncs)-n
		if k := e.bucketOf[u+1]; k >= 0 {
			b := e.buckets[k]
			for j, g := range b.groups {
				if b.at[j] == u {
					for _, p := range g.Params {
						w.grads[p] = slices.Clone(p.G.Data)
					}
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
// unit before its bucket's own unit, and no gradient changed between
// its group's issue and the sync hook — a unit reported before its
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
	for k, b := range e.buckets {
		for j, u := range b.at {
			p, ok := pos[u]
			if !ok {
				return fmt.Errorf("bucket %d group %d: unit %d never reported", k, j, u)
			}
			if p > pos[b.last] {
				return fmt.Errorf("bucket %d: unit %d reported after the bucket's unit %d", k, u, b.last)
			}
			want := 0
			for _, v := range b.at {
				if v == u {
					want++
				}
			}
			if w.issued[u] != want {
				return fmt.Errorf("unit %d issued %d syncs, not %d", u, w.issued[u], want)
			}
			for _, par := range b.groups[j].Params {
				if !slices.Equal(w.grads[par], w.hook[par]) {
					return fmt.Errorf("bucket %d: %s changed after unit %d issued its sync", k, par.Name, u)
				}
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

// issueAtBlockEnd moves every expert group's issue back to its bucket's
// own unit, where the engine issued it before MoE layers reported their
// experts from inside the backward.
func issueAtBlockEnd(e *Engine) {
	for _, b := range e.buckets {
		for j, u := range b.at {
			if u != b.last {
				e.bucketOf[u+1], b.at[j] = -1, b.last
			}
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
				for _, b := range e.buckets {
					for _, u := range b.at {
						if u != b.last && !(w.clock[u] < w.clock[b.last]) {
							fail(fmt.Errorf("step %d: expert unit %d issued at %v, its block's unit %d finished at %v",
								i, u, w.clock[u], b.last, w.clock[b.last]))
						}
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
