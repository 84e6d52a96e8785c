package parallel

import (
	"math"
	"testing"

	"bagualu/internal/mpi"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/train"
)

// TestStepLossRankOrder pins what Engine.Step reports: the loss and aux
// loss are the float64 sums of the ranks' own step values in rank
// order, divided by the stage size and rounded once, whatever machine
// the world runs on. dp4 runs on one supernode of four nodes, where an
// all-reduce would take the ring, and on two supernodes of two, where
// it would take the rail schedule; a twin of each world calls
// Trainer.Step directly for every rank's own values. dp4×pp2 then
// reports flat dp4's step-0 loss bit for bit: its last stage holds the
// same per-rank losses, and the first stage's zeros add exactly.
func TestStepLossRankOrder(t *testing.T) {
	const steps = 6
	mc := pipeModelCfg(4)
	tc := pipeTrainCfg(2)
	// run returns rank 0's Engine.Step stats for each step of strat on
	// topo, and each rank's own Trainer.Step metrics from a twin world.
	run := func(strat Strategy, topo *simnet.Topology) (world []StepStats, local [][]train.Metrics) {
		world = make([]StepStats, steps)
		local = make([][]train.Metrics, steps)
		for s := range local {
			local[s] = make([]train.Metrics, strat.Size())
		}
		for _, own := range []bool{false, true} {
			mpi.NewWorld(strat.Size(), topo).Run(func(c *mpi.Comm) {
				e, err := NewEngine(c, strat, mc, tinyCorpusCfg(), tc, train.NewAdam(0), 11)
				if err != nil {
					t.Error(err)
					panic(err)
				}
				for s := 0; s < steps; s++ {
					if own {
						local[s][c.Rank()] = e.Trainer.Step()
					} else if st := e.Step(); c.Rank() == 0 {
						world[s] = st
					}
				}
			})
		}
		return world, local
	}
	dp4 := Strategy{DataParallel: 4, ExpertParallel: 1}
	var flat float32
	for _, m := range []struct {
		name string
		topo *simnet.Topology
	}{
		{"ring", simnet.New(sunway.TestMachine(1, 4), 1)},
		{"rails", simnet.New(sunway.TestMachine(2, 2), 1)},
	} {
		world, local := run(dp4, m.topo)
		for s := range world {
			var loss, aux float64
			for _, l := range local[s] {
				loss += float64(l.Loss)
				aux += float64(l.AuxLoss)
			}
			want, wantAux := float32(loss/4), float32(aux/4)
			if math.Float32bits(world[s].Loss) != math.Float32bits(want) || math.Float32bits(world[s].AuxLoss) != math.Float32bits(wantAux) {
				t.Errorf("%s step %d: loss %v aux %v, rank-order float64 sums give %v and %v",
					m.name, s, world[s].Loss, world[s].AuxLoss, want, wantAux)
			}
		}
		flat = world[0].Loss
	}
	pp, _ := run(Strategy{DataParallel: 4, ExpertParallel: 1, Pipeline: 2}, simnet.New(sunway.TestMachine(2, 4), 1))
	if math.Float32bits(pp[0].Loss) != math.Float32bits(flat) {
		t.Errorf("dp4×pp2 step 0 loss %v, flat dp4 %v", pp[0].Loss, flat)
	}
}
