package parallel

import (
	"math"
	"testing"

	"bagualu/internal/mpi"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/train"
)

// TestRebalanceKeepsTrajectory: a rebalance moves experts with their
// optimizer state, so a run that rebalances every 2 steps trains the
// per-step losses of one that never rebalances, bit for bit, on dp2×ep2
// and dp1×ep4 with top-2 routing, at FP32 and under Mixed precision
// (where the FP32 masters move as the weights).
func TestRebalanceKeepsTrajectory(t *testing.T) {
	const steps = 8
	run := func(strat Strategy, prec sunway.Precision, seed uint64, every int) (losses []float32, moves int) {
		losses = make([]float32, steps)
		mc := tinyModelCfg(1)
		mc.NumExperts = 8
		mpi.NewWorld(strat.Size(), simnet.New(sunway.TestMachine(2, 2), 1)).Run(func(c *mpi.Comm) {
			tc := tinyTrainCfg()
			tc.Precision = prec
			e, err := NewEngine(c, strat, mc, tinyCorpusCfg(), tc, train.NewAdam(0), seed)
			if err != nil {
				panic(err)
			}
			for s := 0; s < steps; s++ {
				st := e.Step()
				if every > 0 && s > 0 && s%every == 0 {
					n, err := e.RebalanceExperts()
					if err != nil {
						panic(err)
					}
					if c.Rank() == 0 {
						moves += n
					}
				}
				if c.Rank() == 0 {
					losses[s] = st.Loss
				}
			}
		})
		return losses, moves
	}
	for _, strat := range []Strategy{{DataParallel: 2, ExpertParallel: 2}, {DataParallel: 1, ExpertParallel: 4}} {
		for _, prec := range []sunway.Precision{sunway.FP32, sunway.Mixed} {
			moved := 0
			for seed := uint64(1); seed <= 3; seed++ {
				want, _ := run(strat, prec, seed, 0)
				got, moves := run(strat, prec, seed, 2)
				moved += moves
				for s := range want {
					if math.Float32bits(got[s]) != math.Float32bits(want[s]) {
						t.Fatalf("%s %v seed %d: step %d loss %v after %d expert moves, %v without rebalancing", strat, prec, seed, s, got[s], moves, want[s])
					}
				}
			}
			if moved == 0 {
				t.Fatalf("%s %v: no rebalance moved an expert", strat, prec)
			}
		}
	}
}
