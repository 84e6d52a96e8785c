package parallel

import (
	"math"
	"testing"

	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/train"
)

// TestStepScalarsUnderSync pins where the step's scalar exchanges run:
// the step's first gradient bucket starts the world statistics gather
// (and, when the engine runs one, the health round) as requests ahead of
// its sync, and Step joins them after the optimizer.
//
// On W2's shape (dp2×ep4, Mixed, four supernodes of one two-rank node,
// here with capacity-drop routing) and W4's (dp8, FP32, two supernodes of two two-rank nodes, with a
// health round) the reported loss, aux loss and overflow are the
// rank-order float64 oracle of TestStepLossRankOrder bit for bit, and
// with no compute rate every rank's step ends at the clock its sync hook
// returned at: the requests finish under the sync and add no time. On
// pp4×dp1 there is no sync to hide under, and on pp4×dp2 only a
// two-rank one, under which the requests outlast some rank's hook; Step
// must still join every request, so a Wait after it moves no clock.
func TestStepScalarsUnderSync(t *testing.T) {
	const steps = 3
	// W2's model routes with capacity truncation, so the overflow count
	// the statistics carry is not zero.
	drops := tinyModelCfg(1)
	drops.RouteMode, drops.CapacityFactor = moe.CapacityDrop, 0.5
	for _, row := range []struct {
		name     string
		strat    Strategy
		mc       ModelConfig
		prec     sunway.Precision
		topo     *simnet.Topology
		health   bool
		hidden   bool // every request finishes before its rank's hook returns
		outlasts bool // some request finishes after its rank's hook returned
	}{
		{"w2-dp2xep4", Strategy{DataParallel: 2, ExpertParallel: 4}, drops, sunway.Mixed,
			simnet.New(sunway.TestMachine(4, 1), 2), false, true, false},
		{"w4-dp8", Strategy{DataParallel: 8, ExpertParallel: 1}, tinyModelCfg(0), sunway.FP32,
			simnet.New(sunway.TestMachine(2, 2), 2), true, true, false},
		{"pp4xdp1", Strategy{DataParallel: 1, ExpertParallel: 1, Pipeline: 4}, pipeModelCfg(4), sunway.FP32,
			simnet.New(sunway.TestMachine(2, 2), 1), true, false, false},
		{"pp4xdp2", Strategy{DataParallel: 2, ExpertParallel: 1, Pipeline: 4}, pipeModelCfg(4), sunway.FP32,
			simnet.New(sunway.TestMachine(2, 2), 2), true, false, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			ranks := row.strat.Size()
			tc := tinyTrainCfg()
			tc.Precision = row.prec
			world := make([][]StepStats, steps)
			local := make([][]train.Metrics, steps)
			hookEnd := make([][]float64, steps)
			stepEnd := make([][]float64, steps)
			late := make([][]bool, steps) // a Wait after Step moved the clock
			for s := range world {
				world[s], local[s] = make([]StepStats, ranks), make([]train.Metrics, ranks)
				hookEnd[s], stepEnd[s], late[s] = make([]float64, ranks), make([]float64, ranks), make([]bool, ranks)
			}
			for _, own := range []bool{false, true} {
				w := mpi.NewWorld(ranks, row.topo)
				w.Run(func(c *mpi.Comm) {
					e, err := NewEngine(c, row.strat, row.mc, tinyCorpusCfg(), tc, train.NewAdam(0), 11)
					if err != nil {
						t.Error(err)
						panic(err)
					}
					if row.health {
						e.health = func() []float64 { return collectHealth(w, c) }
					}
					sync := e.Trainer.PostBackward
					e.Trainer.PostBackward = func(m train.Metrics) float32 {
						norm := sync(m)
						if !own {
							hookEnd[m.Step][c.Rank()] = c.Now()
						}
						return norm
					}
					for s := 0; s < steps; s++ {
						if own {
							local[s][c.Rank()] = e.Trainer.Step()
							continue
						}
						world[s][c.Rank()] = e.Step()
						stepEnd[s][c.Rank()] = c.Now()
						for _, r := range e.scalars {
							r.Wait()
						}
						late[s][c.Rank()] = c.Now() != stepEnd[s][c.Rank()]
					}
				})
			}
			group := float64(row.strat.Size() / row.strat.PP())
			outlasted, dropped := false, false
			for s := 0; s < steps; s++ {
				var loss, aux, over float64
				for _, l := range local[s] {
					loss += float64(l.Loss)
					aux += float64(l.AuxLoss)
					over += float64(l.Overflow)
				}
				want, wantAux := float32(loss/group), float32(aux/group)
				dropped = dropped || over > 0
				for r, st := range world[s] {
					if math.Float32bits(st.Loss) != math.Float32bits(want) || math.Float32bits(st.AuxLoss) != math.Float32bits(wantAux) || st.Overflow != int(over) {
						t.Errorf("step %d rank %d: loss %v aux %v overflow %d, rank-order float64 sums give %v %v %v",
							s, r, st.Loss, st.AuxLoss, st.Overflow, want, wantAux, over)
					}
					if row.health != (len(st.health) == ranks) {
						t.Errorf("step %d rank %d: %d health scores, want one set of %d", s, r, len(st.health), ranks)
					}
					if late[s][r] {
						t.Errorf("step %d rank %d: Step returned before a scalar request finished", s, r)
					}
					if stepEnd[s][r] != hookEnd[s][r] {
						outlasted = true
						if row.hidden {
							t.Errorf("step %d rank %d: step ends at %.9g, the sync hook returned at %.9g",
								s, r, stepEnd[s][r], hookEnd[s][r])
						}
					}
				}
			}
			if row.mc.RouteMode == moe.CapacityDrop && !dropped {
				t.Error("capacity-drop routing dropped nothing: the overflow sum is untested")
			}
			if row.outlasts && !outlasted {
				t.Error("no request outlasted the sync hook: the join is untested")
			}
		})
	}
}
