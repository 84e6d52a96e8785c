package parallel

import (
	"fmt"
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
// them, each found again from the unit that completes it.
func checkBuckets(e *Engine) error {
	sharded := e.shardedSet()
	seen := map[*nn.Param]int{}
	prev := e.Model.HeadUnit() + 1
	for k, b := range e.buckets {
		if b.last >= prev {
			return fmt.Errorf("bucket %d completes at unit %d after bucket %d's %d", k, b.last, k-1, prev)
		}
		prev = b.last
		if e.bucketOf[b.last+1] != k {
			return fmt.Errorf("unit %d maps to bucket %d, not %d", b.last, e.bucketOf[b.last+1], k)
		}
		for _, g := range b.groups {
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

// TestGradBucketsPartitionOwned: after every (re)partition — NewEngine
// on flat, pipelined, interleaved and one-rank ZeRO layouts, Reform onto
// another grid, Mitigate and RebalanceExperts after a migration — the
// gradient buckets cut exactly the parameters the rank owns, each on
// its communicator, and the step after it starts every bucket's sync.
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
				fail("NewEngine", checkBuckets(e))
				e.Step()
				e.Step()
				for _, ch := range row.then {
					fail(ch.name, ch.do(e, c))
					fail("after "+ch.name, checkBuckets(e))
					e.Step()
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
