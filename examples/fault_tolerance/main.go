// Fault tolerance: run a distributed MoE training job with a scripted
// rank crash, let the fault-tolerant loop detect it, shrink the world,
// restore from the last sharded checkpoint, and finish the run — then
// print the goodput accounting.
//
//	go run ./examples/fault_tolerance
package main

import (
	"fmt"
	"log"
	"os"

	"bagualu"
)

func main() {
	const (
		ranks = 4
		steps = 12
	)
	dir, err := os.MkdirTemp("", "bagualu-ft-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Rank 2 fail-stops entering step 7. The schedule is explicit here;
	// `bagualu exp R11` draws reproducible schedules from an MTBF
	// instead.
	inj, err := bagualu.ScriptedFaults(bagualu.FaultConfig{Ranks: ranks, Steps: steps},
		[]bagualu.FaultEvent{{Rank: 2, Step: 7}})
	if err != nil {
		log.Fatal(err)
	}

	topo := bagualu.NewTopology(bagualu.TestMachine(2, 2), 1)
	w := bagualu.NewWorld(ranks, topo)
	cfg := bagualu.FTConfig{
		Strategy: bagualu.Strategy{DataParallel: 1, ExpertParallel: ranks},
		Model: bagualu.ModelConfig{
			GPT:            bagualu.GPTConfig{Vocab: 64, Dim: 16, Heads: 2, Layers: 2, SeqLen: 8, FFNHidden: 32},
			NumExperts:     12,
			TopK:           2,
			CapacityFactor: 2,
			AuxLossWeight:  0.01,
			MoEHidden:      32,
			MoEEvery:       1,
		},
		Corpus: bagualu.CorpusConfig{Vocab: 64, SeqLen: 8, Zipf: 0.5, Determinism: 0.9, Seed: 7},
		Train: bagualu.TrainConfig{
			Batch: 4, Precision: bagualu.FP32,
			Schedule: bagualu.ConstantLR(1e-2), ClipNorm: 1,
		},
		Seed:  11,
		Steps: steps,
		Policy: &bagualu.FaultPolicy{
			Dir: dir, Interval: 3, Async: true, DiskBWGiBs: 0.5, MaxRecoveries: 2,
		},
		OptFor:       func() bagualu.Optimizer { return bagualu.NewAdam(0) },
		ComputeFLOPS: 2e8,
	}

	res, err := bagualu.RunFaultTolerant(w, cfg, inj)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed:   %v (%d steps, final loss %.4f)\n", res.Completed, res.Steps, res.FinalLoss)
	fmt.Printf("failures:    %d rank(s) lost, %d recovery(ies), world %d -> %d\n",
		res.Failures, res.Recoveries, ranks, res.FinalWorld)
	fmt.Printf("goodput:     %.3f (useful %.4fs of %.4fs virtual)\n", res.Goodput, res.UsefulSim, res.TotalSim)
	fmt.Printf("phases:      snapshot %.5fs  flush %.5fs  recovery %.5fs (disk read %.5fs, replica all-gather %.5fs)\n",
		res.Timing.Snapshot, res.Timing.Flush, res.Timing.Recovery, res.Timing.RecoveryRead, res.Timing.RecoveryGather)

	latest, err := bagualu.CkptLatest(dir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoints: latest committed step %d under %s\n", latest, dir)
	if !res.Completed {
		os.Exit(1)
	}
}
