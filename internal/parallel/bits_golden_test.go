package parallel

import (
	"bytes"
	"cmp"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bagualu/internal/fault"
	"bagualu/internal/moe"
	"bagualu/internal/mpi"
	"bagualu/internal/nn"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
	"bagualu/internal/train"
)

var updateGolden = flag.Bool("golden.update", false, "rewrite testdata/bits.golden and testdata/clock.golden")

// goldenShape is one of the benchmark's engine workloads at tier-1 size:
// its layout, machine, model and training recipe.
type goldenShape struct {
	name                   string
	strat                  Strategy
	supernodes, nodesPerSN int
	ranksPerNode           int
	mc                     ModelConfig
	tc                     train.Config
	zero                   bool
	steps                  int
	crashSteps             []int // non-nil: RunFaultTolerant with these scripted crashes
	ckptEvery              int
	dropProb               float64
}

// goldenShapes are W2 (dp2×ep4 over four supernodes of one two-rank node,
// Mixed, FP16 wire with overlap), W3 (pp4×dp2 interleaved, ZeRO) and W4
// (dp8 under RunFaultTolerant with wire drops and two scripted crashes),
// shrunk the way the benchmark's smoke sizes shrink them.
func goldenShapes() []goldenShape {
	gpt := func(layers int) nn.GPTConfig {
		return nn.GPTConfig{Vocab: 64, Dim: 16, Heads: 2, Layers: layers, SeqLen: 8, FFNHidden: 32}
	}
	lr := train.ConstantLR(1e-2)
	return []goldenShape{
		{
			name: "w2-dp2xep4", strat: Strategy{DataParallel: 2, ExpertParallel: 4},
			supernodes: 4, nodesPerSN: 1, ranksPerNode: 2,
			mc: ModelConfig{
				GPT: gpt(2), NumExperts: 16, TopK: 2, AuxLossWeight: 0.01, MoEHidden: 32, MoEEvery: 1,
				Algo: moe.Auto, RouteMode: moe.TokenChoice,
				Comm: moe.CommConfig{Codec: mpi.FP16Wire, Overlap: true},
			},
			tc:    train.Config{Batch: 2, Precision: sunway.Mixed, Schedule: lr, ClipNorm: 1},
			steps: 8,
		},
		{
			name: "w3-pp4xdp2-zero", strat: Strategy{DataParallel: 2, ExpertParallel: 1, Pipeline: 4, Virtual: 2},
			supernodes: 2, nodesPerSN: 2, ranksPerNode: 2,
			mc: ModelConfig{
				GPT: gpt(8), NumExperts: 2, TopK: 1, AuxLossWeight: 0.01, MoEHidden: 32, MoEEvery: 2, Algo: moe.Auto,
			},
			tc:   train.Config{Batch: 1, Precision: sunway.FP32, Schedule: lr, ClipNorm: 1, Accum: 8},
			zero: true, steps: 4,
		},
		{
			name: "w4-dp8-ft", strat: Strategy{DataParallel: 8, ExpertParallel: 1},
			supernodes: 2, nodesPerSN: 2, ranksPerNode: 2,
			mc: ModelConfig{
				GPT: gpt(2), NumExperts: 4, TopK: 2, AuxLossWeight: 0.01, MoEHidden: 32, MoEEvery: 1, Algo: moe.Auto,
			},
			tc:    train.Config{Batch: 2, Precision: sunway.FP32, Schedule: lr, ClipNorm: 1},
			steps: 8, crashSteps: []int{3, 6}, ckptEvery: 2, dropProb: 1e-3,
		},
	}
}

// goldenRecord accumulates one run's bits and clock lines.
type goldenRecord struct{ bits, clock bytes.Buffer }

func (g *goldenRecord) step(label string, st StepStats) {
	fmt.Fprintf(&g.bits, "%s step %d loss %08x aux %08x gnorm %08x\n", label, st.Step,
		math.Float32bits(st.Loss), math.Float32bits(st.AuxLoss), math.Float32bits(st.GradNorm))
	fmt.Fprintf(&g.clock, "%s step %d simtime %016x (%.9g)\n", label, st.Step, math.Float64bits(st.SimTime), st.SimTime)
}

// momentKey names one element of a rank-exclusive optimizer-state
// range by its tensor and logical offset.
type momentKey struct {
	name string
	off  int
}

// weightsHash hashes the bits of every tensor a bit-exact resume needs
// (weights, optimizer state, FP32 masters) that the rank holds whole,
// in checkpoint order. Rank-exclusive ranges (ZeRO's moment shards) are
// left to moments: where a range is cut is not a trained value.
func weightsHash(e *Engine) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, p := range e.Trainer.CheckpointParams() {
		if p.FullShape != nil {
			continue
		}
		h.Write([]byte(p.Name))
		for _, v := range p.W.Data {
			u := math.Float32bits(v)
			b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// moments adds the bits of every element of the rank's rank-exclusive
// state ranges to m, keyed by (name, logical offset).
func moments(e *Engine, m map[momentKey]uint32) {
	for _, p := range e.Trainer.CheckpointParams() {
		if p.FullShape == nil {
			continue
		}
		for i, v := range p.W.Data {
			m[momentKey{p.Name, p.ShardLo + i}] = math.Float32bits(v)
		}
	}
}

// momentsHash hashes the world's rank-exclusive state elements in
// (name, offset) order, so it reads the same however the ranges are cut.
func momentsHash(m map[momentKey]uint32) uint64 {
	keys := make([]momentKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b momentKey) int {
		return cmp.Or(strings.Compare(a.name, b.name), cmp.Compare(a.off, b.off))
	})
	h := fnv.New64a()
	var b [4]byte
	name := ""
	for _, k := range keys {
		if k.name != name {
			name = k.name
			h.Write([]byte(name))
		}
		u := m[k]
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// run trains the shape at seed and appends rank 0's per-step lines and
// every surviving rank's final weights hash to g.
func (s goldenShape) run(t *testing.T, seed uint64, g *goldenRecord) {
	t.Helper()
	m := sunway.TestMachine(s.supernodes, s.nodesPerSN)
	rate := m.NodeFlops(s.tc.Precision) * 0.3 / float64(s.ranksPerNode)
	topo := simnet.New(m, s.ranksPerNode)
	mc := s.mc
	mc.MoESimFLOPS = rate
	corpus := tinyCorpusCfg()
	corpus.Vocab, corpus.SeqLen, corpus.Seed = mc.GPT.Vocab, mc.GPT.SeqLen, seed*7919+17
	ranks := s.strat.Size()
	label := fmt.Sprintf("%s seed %d", s.name, seed)
	hashes := make([]uint64, ranks)
	done := make([]bool, ranks)
	held := make([]map[momentKey]uint32, ranks)
	steps := make([]StepStats, 0, s.steps)
	record := func(rank int, e *Engine, st StepStats) {
		if rank == 0 {
			steps = append(steps, st)
		}
		if e.Trainer.StepCount() == s.steps {
			hashes[rank], done[rank] = weightsHash(e), true
			held[rank] = map[momentKey]uint32{}
			moments(e, held[rank])
		}
	}

	w := mpi.NewWorld(ranks, topo)
	if s.crashSteps == nil {
		w.Run(func(c *mpi.Comm) {
			e, err := NewEngine(c, s.strat, mc, corpus, s.tc, train.OptimizerFactory(s.zero, 0)(), seed)
			if err != nil {
				t.Error(err)
				panic(err)
			}
			e.SetComputeRate(rate)
			for i := 0; i < s.steps; i++ {
				record(c.Rank(), e, e.Step())
			}
		})
	} else {
		// The victims move with the seed; rank 0 is spared so it reports
		// every step.
		events := make([]fault.Event, len(s.crashSteps))
		for i, step := range s.crashSteps {
			events[i] = fault.Event{Kind: fault.EventCrash, Step: step, Rank: 1 + int((seed+uint64(i)*3)%uint64(ranks-1))}
			if i > 0 && events[i].Rank == events[i-1].Rank {
				events[i].Rank = 1 + events[i].Rank%(ranks-1)
			}
		}
		inj, err := fault.Scripted(fault.Config{Seed: seed, Ranks: ranks, Steps: s.steps, DropProb: s.dropProb}, events)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunFaultTolerant(w, FTConfig{
			Strategy: s.strat, Model: mc, Corpus: corpus, Train: s.tc, Seed: seed, Steps: s.steps,
			Policy: &train.FaultPolicy{
				Dir: t.TempDir(), Interval: s.ckptEvery, Async: true, DiskBWGiBs: 0.5,
				MaxRecoveries: len(s.crashSteps) + 1, Escalation: train.EscalateTiered,
			},
			OptFor:       train.OptimizerFactory(s.zero, 0),
			ComputeFLOPS: rate,
			stepped:      record,
		}, inj)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed || res.Recoveries != len(s.crashSteps) {
			t.Fatalf("%s: fault-tolerant run did not recover every crash: %+v", label, res)
		}
	}
	for _, st := range steps {
		g.step(label, st)
	}
	world := map[momentKey]uint32{}
	for r, h := range hashes {
		if !done[r] {
			continue
		}
		fmt.Fprintf(&g.bits, "%s rank %d weights %016x\n", label, r, h)
		for k, v := range held[r] {
			if w, ok := world[k]; ok && w != v {
				t.Errorf("%s: ranks disagree on %s[%d]: %08x vs %08x", label, k.name, k.off, w, v)
			}
			world[k] = v
		}
	}
	if len(world) > 0 {
		fmt.Fprintf(&g.bits, "%s moments %016x (%d elements)\n", label, momentsHash(world), len(world))
	}
}

// TestBitsGolden pins the training bits of the W2, W3 and W4 shapes at
// seeds 1 and 2: every step's loss, aux loss and gradient norm bit
// patterns (rank 0's view), a hash of every surviving rank's
// checkpointable tensors after the last step, and one hash of the
// world's rank-exclusive optimizer state by name and logical offset. A change to how bytes
// travel — a codec site moved, a schedule reordered — must leave
// testdata/bits.golden byte-identical. Per-step virtual seconds go to
// testdata/clock.golden, which such a change may move on purpose.
// Regenerate both with
//
//	go test ./internal/parallel -run TestBitsGolden -golden.update
func TestBitsGolden(t *testing.T) {
	var g goldenRecord
	for _, s := range goldenShapes() {
		for _, seed := range []uint64{1, 2} {
			s.run(t, seed, &g)
		}
	}
	for _, f := range []struct {
		name string
		got  []byte
	}{{"bits.golden", g.bits.Bytes()}, {"clock.golden", g.clock.Bytes()}} {
		path := filepath.Join("testdata", f.name)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, f.got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -golden.update)", err)
		}
		if !bytes.Equal(f.got, want) {
			gl, wl := bytes.Split(f.got, []byte("\n")), bytes.Split(want, []byte("\n"))
			for i := 0; i < max(len(gl), len(wl)); i++ {
				var a, b []byte
				if i < len(gl) {
					a = gl[i]
				}
				if i < len(wl) {
					b = wl[i]
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("%s differs at line %d:\n got  %s\n want %s", f.name, i+1, a, b)
				}
			}
		}
	}
}
