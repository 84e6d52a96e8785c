package parallel

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"bagualu/internal/fault"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/train"
)

// degradeTopo prices the test machine with bandwidth scaled down so
// payload time dominates startup latency. The tiny test messages are
// otherwise alpha-dominated, which would hide exactly the effect
// straggler mitigation targets (it removes bytes from slow links, not
// messages).
func degradeTopo() *simnet.Topology {
	topo := simnet.New(sunway.TestMachine(2, 2), 1)
	for l := range topo.Beta {
		topo.Beta[l] *= 4096
	}
	return topo
}

// degradeCfg is ftConfig with gradient clipping off and per-local-row
// expert compute charging on. Clipping: the distributed grad-norm
// reduction is placement-sensitive at ULP level, and the bit-exactness
// assertions below compare runs whose expert placement diverges
// mid-run. MoESimFLOPS: expert GEMM time must be charged by the rows a
// rank actually processes — a straggler's compute runs at its delay
// multiplier, so draining its experts is exactly the work mitigation
// removes.
func degradeCfg(strat Strategy, steps int, pol *train.FaultPolicy) FTConfig {
	cfg := ftConfig(strat, steps, pol)
	cfg.Train.ClipNorm = 0
	cfg.Model.MoESimFLOPS = 1e6
	return cfg
}

func runDegrade(t *testing.T, esc train.Escalation, steps int, inj *fault.Injector) *FTResult {
	t.Helper()
	pol := &train.FaultPolicy{Dir: t.TempDir(), Interval: 4, MaxRecoveries: 8, Escalation: esc}
	w := mpi.NewWorld(4, degradeTopo())
	res, err := RunFaultTolerant(w, degradeCfg(Strategy{DataParallel: 1, ExpertParallel: 4}, steps, pol), inj)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Tier 1 in isolation: random wire drops are absorbed by retransmission
// with zero recoveries, and the loss trajectory is bit-exactly the
// fault-free one — the transport pays virtual time, never numerics.
func TestRetransmitTierBitExactLoss(t *testing.T) {
	const steps = 8
	base := runDegrade(t, train.EscalateRetransmit, steps, nil)
	inj, err := fault.Scripted(fault.Config{Ranks: 4, Steps: steps, Seed: 3, DropProb: 0.01}, nil)
	if err != nil {
		t.Fatal(err)
	}
	faulty := runDegrade(t, train.EscalateRetransmit, steps, inj)

	if !faulty.Completed || faulty.Recoveries != 0 || faulty.Failures != 0 {
		t.Fatalf("drops were not absorbed by the transport: %+v", faulty)
	}
	if faulty.Retransmits == 0 || faulty.RecoveredFrames == 0 {
		t.Fatalf("1%% drop probability caused no retransmits: %+v", faulty)
	}
	if faulty.ExhaustedFrames != 0 {
		t.Fatalf("retries exhausted under a transient drop rate: %+v", faulty)
	}
	if faulty.FinalLoss != base.FinalLoss {
		t.Fatalf("retransmitted run diverged: loss %v, fault-free %v", faulty.FinalLoss, base.FinalLoss)
	}
	if faulty.BackoffSim <= 0 || faulty.TotalSim <= base.TotalSim {
		t.Fatalf("retransmission charged no virtual time: faulty %v vs base %v (backoff %v)",
			faulty.TotalSim, base.TotalSim, faulty.BackoffSim)
	}
}

// Tier 2 in isolation: with one rank's links at x4, the tiered policy
// detects it, drains its experts, and finishes in strictly less
// virtual time than the same run without mitigation — at the identical
// final loss, because migration ships optimizer state with weights.
func TestStragglerMitigationImprovesMakespan(t *testing.T) {
	const steps = 12
	// Rank 3 is a supernode FOLLOWER (rank 2 leads SN1): mitigation can
	// offload a follower's expert work entirely. A straggling LEADER
	// would keep forwarding cross-supernode traffic for its members no
	// matter where the experts live — see DESIGN.md.
	ev := []fault.Event{{Kind: fault.EventStraggler, Rank: 3, Mult: 4}}
	mk := func() *fault.Injector {
		inj, err := fault.Scripted(fault.Config{Ranks: 4, Steps: steps, Seed: 3}, ev)
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	unmit := runDegrade(t, train.EscalateRetransmit, steps, mk())
	mit := runDegrade(t, train.EscalateTiered, steps, mk())

	if !mit.Completed || mit.Recoveries != 0 {
		t.Fatalf("mitigated run did not complete cleanly: %+v", mit)
	}
	if mit.Mitigations < 1 {
		t.Fatalf("straggler at x4 triggered no mitigation: %+v", mit)
	}
	found := false
	for _, r := range mit.DegradedRanks {
		if r == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("health monitor missed the straggler: degraded = %v", mit.DegradedRanks)
	}
	if mit.TotalSim >= unmit.TotalSim {
		t.Fatalf("mitigation did not improve makespan: %v vs unmitigated %v", mit.TotalSim, unmit.TotalSim)
	}
	if mit.FinalLoss != unmit.FinalLoss {
		t.Fatalf("mitigated run diverged: loss %v, unmitigated %v", mit.FinalLoss, unmit.FinalLoss)
	}
	if mit.MitigationSim <= 0 {
		t.Fatalf("mitigation charged no virtual time: %+v", mit)
	}
}

// TestHealthScoresOncePerStep pins the health window: the engine runs
// the telemetry round as a request under each step's gradient sync, so
// on TestStragglerMitigationImprovesMakespan's run every rank's monitor
// folds in exactly one set of scores per completed step, in step order,
// the same set on every rank, and flags the straggler.
func TestHealthScoresOncePerStep(t *testing.T) {
	const steps, ranks = 12, 4
	inj, err := fault.Scripted(fault.Config{Ranks: ranks, Steps: steps, Seed: 3},
		[]fault.Event{{Kind: fault.EventStraggler, Rank: 3, Mult: 4}})
	if err != nil {
		t.Fatal(err)
	}
	pol := &train.FaultPolicy{Dir: t.TempDir(), Interval: 4, MaxRecoveries: 8, Escalation: train.EscalateTiered}
	cfg := degradeCfg(Strategy{DataParallel: 1, ExpertParallel: ranks}, steps, pol)
	var mu sync.Mutex
	seen := make([][][]float64, ranks) // per rank, the scores of each observation in order
	flagged := -1                      // the first step after which rank 0's monitor holds rank 3 degraded
	cfg.observed = func(rank, step int, scores []float64, degraded []int) {
		mu.Lock()
		defer mu.Unlock()
		if step != len(seen[rank]) {
			t.Errorf("rank %d: scores of step %d arrive as observation %d", rank, step, len(seen[rank]))
		}
		seen[rank] = append(seen[rank], scores)
		if rank == 0 && flagged < 0 && slices.Contains(degraded, 3) {
			flagged = step
		}
	}
	res, err := RunFaultTolerant(mpi.NewWorld(ranks, degradeTopo()), cfg, inj)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Steps != steps || res.Recoveries != 0 {
		t.Fatalf("straggler run did not complete cleanly: %+v", res)
	}
	for r := range seen {
		if len(seen[r]) != steps {
			t.Fatalf("rank %d observed %d sets of scores over %d steps", r, len(seen[r]), steps)
		}
		for s, sc := range seen[r] {
			if len(sc) != ranks || !slices.Equal(sc, seen[0][s]) {
				t.Fatalf("rank %d step %d: scores %v, rank 0 saw %v", r, s, sc, seen[0][s])
			}
		}
	}
	if flagged < 0 {
		t.Fatal("the monitor never flagged the straggler")
	}
	t.Logf("straggler first flagged after step %d", flagged)
}

// The acceptance scenario: DropProb=3e-3 plus two stragglers at x4.
// The tiered policy must complete with zero rollbacks, reach the
// fault-free loss bit-exactly, and deliver strictly higher throughput
// on the virtual clock than both always-rollback and retransmit-only.
// At this rate the transport arms retransmit a dropped frame and the
// rollback arm recovers from two; from 3.4e-3 on a frame of step 0
// drops, and the rollback arm dies before its first checkpoint.
func TestTieredEscalationBeatsAlternatives(t *testing.T) {
	const steps = 12
	ev := []fault.Event{
		{Kind: fault.EventStraggler, Rank: 1, Mult: 4},
		{Kind: fault.EventStraggler, Rank: 3, Mult: 4},
	}
	mk := func() *fault.Injector {
		inj, err := fault.Scripted(fault.Config{Ranks: 4, Steps: steps, Seed: 10, DropProb: 3e-3}, ev)
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	ff := runDegrade(t, train.EscalateTiered, steps, nil)
	tiered := runDegrade(t, train.EscalateTiered, steps, mk())
	noMit := runDegrade(t, train.EscalateRetransmit, steps, mk())
	rollback := runDegrade(t, train.EscalateRollback, steps, mk())

	if !tiered.Completed || tiered.Recoveries != 0 || tiered.Failures != 0 {
		t.Fatalf("tiered run rolled back: %+v", tiered)
	}
	if tiered.Mitigations < 1 {
		t.Fatalf("tiered run never mitigated the stragglers: %+v", tiered)
	}
	if tiered.FinalLoss != ff.FinalLoss {
		t.Fatalf("tiered run diverged from fault-free: %v vs %v", tiered.FinalLoss, ff.FinalLoss)
	}
	if tiered.StepsPerSim <= noMit.StepsPerSim {
		t.Fatalf("tiered %.4g steps/sim-s did not beat retransmit-only %.4g",
			tiered.StepsPerSim, noMit.StepsPerSim)
	}
	if tiered.StepsPerSim <= rollback.StepsPerSim {
		t.Fatalf("tiered %.4g steps/sim-s did not beat always-rollback %.4g (rollback: %+v)",
			tiered.StepsPerSim, rollback.StepsPerSim, rollback)
	}
	// The rollback arm must actually have suffered: wire drops with no
	// transport convert to rank failures.
	if rollback.Completed && rollback.Recoveries == 0 {
		t.Fatalf("rollback arm sailed through a lossy wire: %+v", rollback)
	}
}

// The whole escalation state machine — transport retries, health
// scoring, mitigation, checkpoint suspension — must replay bit-exactly
// under the same seed: every field of the result, virtual times
// included.
func TestEscalationDeterministicReplay(t *testing.T) {
	const steps = 10
	run := func() *FTResult {
		ev := []fault.Event{{Kind: fault.EventStraggler, Rank: 1, Mult: 4}}
		inj, err := fault.Scripted(fault.Config{Ranks: 4, Steps: steps, Seed: 5, DropProb: 5e-3}, ev)
		if err != nil {
			t.Fatal(err)
		}
		return runDegrade(t, train.EscalateTiered, steps, inj)
	}
	a := run()
	b := run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("escalation replay diverged:\n  first  %+v\n  second %+v", a, b)
	}
}

// TestMitigateKeepsMovedState: a drain moves an expert whole. With Adam
// at FP32 and at Mixed, every expert tensor — FP32 master, working
// weights and both moments — has the same bits by name after the
// drain as before it, wherever it now lives. LAMB cannot ship its
// state with an expert, so Mitigate refuses it.
func TestMitigateKeepsMovedState(t *testing.T) {
	const ranks = 4
	type tensors map[string][]uint32 // IEEE bits by name
	// run trains dp1 x ep4 three steps, drains slot 0, and returns every
	// rank's expert tensors before and after, and where each lived.
	run := func(prec sunway.Precision, opt func() train.Optimizer) (before, after tensors, moved int, err error) {
		before, after = tensors{}, tensors{}
		owner := map[string]int{}
		var mu sync.Mutex
		errs := make([]error, ranks)
		collect := func(e *Engine, into tensors, rank int) {
			expert := map[string]bool{}
			add := func(name string, v []float32) {
				mu.Lock()
				bits := make([]uint32, len(v))
				for i, x := range v {
					bits[i] = math.Float32bits(x)
				}
				into[name] = bits
				if o, ok := owner[name]; ok && o != rank {
					moved++
				}
				owner[name] = rank
				mu.Unlock()
			}
			for _, p := range e.expertParams {
				expert[p.Name] = true
				add(p.Name, p.W.Data)
				if c, ok := e.Trainer.Opt.(moe.OptStateCarrier); ok {
					for k, s := range c.State(p) {
						add(fmt.Sprintf("%s.state%d", p.Name, k), s)
					}
				}
			}
			for _, m := range e.Trainer.MP.MasterParams() {
				if expert[strings.TrimSuffix(m.Name, ".master")] {
					add(m.Name, m.W.Data)
				}
			}
		}
		w := mpi.NewWorld(ranks, simnet.New(sunway.TestMachine(2, 2), 1))
		w.Run(func(c *mpi.Comm) {
			tc := tinyTrainCfg()
			tc.Precision = prec
			e, err := NewEngine(c, Strategy{DataParallel: 1, ExpertParallel: ranks}, tinyModelCfg(1), tinyCorpusCfg(), tc, opt(), 11)
			if err != nil {
				t.Error(err)
				panic(err)
			}
			for s := 0; s < 3; s++ {
				e.Step()
			}
			collect(e, before, c.Rank())
			c.Barrier()
			if errs[c.Rank()] = e.Mitigate([]bool{true, false, false, false}); errs[c.Rank()] == nil {
				collect(e, after, c.Rank())
			}
		})
		return before, after, moved, errors.Join(errs...)
	}
	adam := func() train.Optimizer { return train.NewAdam(0) }
	for _, prec := range []sunway.Precision{sunway.FP32, sunway.Mixed} {
		before, after, moved, err := run(prec, adam)
		if err != nil {
			t.Fatalf("%v: %v", prec, err)
		}
		if moved == 0 {
			t.Fatalf("%v: draining slot 0 moved nothing", prec)
		}
		masters := 0
		for name, v := range before {
			if strings.HasSuffix(name, ".master") {
				masters++
			}
			if got, ok := after[name]; !ok || !slices.Equal(got, v) {
				t.Errorf("%v: %s changed across the drain", prec, name)
			}
		}
		if len(after) != len(before) || (prec == sunway.Mixed) != (masters > 0) {
			t.Fatalf("%v: %d tensors before, %d after, %d masters", prec, len(before), len(after), masters)
		}
	}
	if _, _, _, err := run(sunway.FP32, func() train.Optimizer { return train.NewLAMB(0) }); err == nil {
		t.Fatal("Mitigate moved experts under LAMB, whose moments cannot travel with them")
	}
}
