package pipe

import (
	"reflect"
	"testing"

	"bagualu/internal/parallel/schedule"
)

func TestPartitionLayers(t *testing.T) {
	p, err := schedule.PartitionLayers(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []schedule.Chunk{{Lo: 0, Hi: 3}, {Lo: 3, Hi: 5}, {Lo: 5, Hi: 7}}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("partition %v, want %v", p, want)
	}
	if _, err := schedule.PartitionLayers(2, 3); err == nil {
		t.Fatal("accepted more chunks than layers")
	}
	p, err = schedule.PartitionLayers(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range p {
		if c.Blocks() != 2 || c.Lo != 2*i {
			t.Fatalf("even partition broken: %v", p)
		}
	}
}

// simulate executes all stages' schedules against the global
// dependency graph and fails on deadlock or double execution. This is
// the schedule-validity oracle: any op order that respects it is
// deadlock-free on the eager-send wire.
func simulate(t *testing.T, stages, virtual, micro int) {
	t.Helper()
	scheds := make([][]schedule.Op, stages)
	remaining := 0
	for s := range scheds {
		scheds[s] = schedule.Schedule(s, stages, virtual, micro)
		want := 3 * virtual * micro // F, B and W of every pass …
		if s == 0 {
			want -= micro // … but global chunk 0's, which has no W
		}
		if len(scheds[s]) != want {
			t.Fatalf("stage %d: %d ops, want %d", s, len(scheds[s]), want)
		}
		remaining += want
	}
	last := stages*virtual - 1
	type key struct {
		kind  schedule.OpKind
		g, mb int
	}
	done := map[key]bool{}
	ready := func(stage int, op schedule.Op) bool {
		g := op.Chunk*stages + stage
		switch op.Kind {
		case schedule.Fwd:
			return g == 0 || done[key{schedule.Fwd, g - 1, op.MB}]
		case schedule.WGrad:
			return done[key{schedule.Bwd, g, op.MB}]
		}
		if !done[key{schedule.Fwd, g, op.MB}] {
			return false
		}
		return g == last || done[key{schedule.Bwd, g + 1, op.MB}]
	}
	pos := make([]int, stages)
	for remaining > 0 {
		progressed := false
		for s := 0; s < stages; s++ {
			for pos[s] < len(scheds[s]) && ready(s, scheds[s][pos[s]]) {
				op := scheds[s][pos[s]]
				k := key{op.Kind, op.Chunk*stages + s, op.MB}
				if done[k] {
					t.Fatalf("stage %d re-executes %v", s, op)
				}
				done[k] = true
				pos[s]++
				remaining--
				progressed = true
			}
		}
		if !progressed {
			for s := 0; s < stages; s++ {
				if pos[s] < len(scheds[s]) {
					t.Logf("stage %d stuck at %v (%d/%d)", s, scheds[s][pos[s]], pos[s], len(scheds[s]))
				}
			}
			t.Fatalf("deadlock: S=%d V=%d M=%d, %d ops remaining", stages, virtual, micro, remaining)
		}
	}
	// Completeness: every (chunk, mb) ran forward and backward once,
	// and its W when the chunk is not global chunk 0.
	for g := 0; g <= last; g++ {
		for m := 0; m < micro; m++ {
			if !done[key{schedule.Fwd, g, m}] || !done[key{schedule.Bwd, g, m}] || done[key{schedule.WGrad, g, m}] != (g > 0) {
				t.Fatalf("chunk %d mb %d incomplete", g, m)
			}
		}
	}
}

func TestSchedule1F1BValid(t *testing.T) {
	for _, c := range []struct{ s, m int }{
		{1, 1}, {1, 4}, {2, 2}, {2, 6}, {3, 3}, {4, 4}, {4, 8}, {4, 2}, {8, 16},
	} {
		simulate(t, c.s, 1, c.m)
	}
}

func TestScheduleInterleavedValid(t *testing.T) {
	for _, c := range []struct{ s, v, m int }{
		{2, 2, 2}, {2, 2, 4}, {2, 3, 2}, {2, 4, 6}, {3, 2, 3}, {4, 2, 4}, {4, 2, 8}, {4, 3, 8}, {2, 2, 8},
	} {
		simulate(t, c.s, c.v, c.m)
	}
}

// TestBackwardAscendingPerChunk pins the gradient-accumulation order
// both schedules guarantee: for every chunk, backwards execute in
// ascending micro-batch order — the same order the non-PP trainer
// accumulates micro-batch gradients in, which is what makes 1F1B loss
// bit-exact against gradient accumulation.
func TestBackwardAscendingPerChunk(t *testing.T) {
	check := func(stages, virtual, micro int) {
		t.Helper()
		for s := 0; s < stages; s++ {
			lastMB := make([]int, virtual)
			for v := range lastMB {
				lastMB[v] = -1
			}
			for _, op := range schedule.Schedule(s, stages, virtual, micro) {
				if op.Kind != schedule.Bwd {
					continue
				}
				if op.MB <= lastMB[op.Chunk] {
					t.Fatalf("S=%d V=%d M=%d stage %d chunk %d: backward mb %d after %d",
						stages, virtual, micro, s, op.Chunk, op.MB, lastMB[op.Chunk])
				}
				lastMB[op.Chunk] = op.MB
			}
		}
	}
	check(2, 1, 4)
	check(4, 1, 8)
	check(2, 2, 4)
	check(4, 2, 8)
	check(3, 2, 6)
}

// TestScheduleSplitsBackward checks, for every S ≤ 5, V ≤ 3 and valid
// M, that each (chunk, micro-batch) has exactly one F and one B, that
// each chunk with global index > 0 has exactly one W per micro-batch,
// right after its B (global chunk 0 has none: its backward stays
// fused), and that a chunk's W ops run in ascending micro-batch order —
// the order its fused backwards added gradients in.
func TestScheduleSplitsBackward(t *testing.T) {
	for S := 1; S <= 5; S++ {
		for V := 1; V <= 3; V++ {
			for M := 1; M <= 12; M++ {
				if V > 1 && (S == 1 || M%S != 0) {
					continue
				}
				for stage := 0; stage < S; stage++ {
					ops := schedule.Schedule(stage, S, V, M)
					count := map[schedule.Op]int{}
					lastW := make([]int, V)
					for v := range lastW {
						lastW[v] = -1
					}
					for i, op := range ops {
						count[op]++
						if op.Kind != schedule.WGrad {
							continue
						}
						if i == 0 || ops[i-1] != (schedule.Op{Kind: schedule.Bwd, Chunk: op.Chunk, MB: op.MB}) {
							t.Fatalf("S=%d V=%d M=%d stage %d: %v does not follow its B", S, V, M, stage, op)
						}
						if op.MB <= lastW[op.Chunk] {
							t.Fatalf("S=%d V=%d M=%d stage %d: %v after W of mb %d", S, V, M, stage, op, lastW[op.Chunk])
						}
						lastW[op.Chunk] = op.MB
					}
					for v := 0; v < V; v++ {
						split := v*S+stage > 0
						for m := 0; m < M; m++ {
							w := 0
							if split {
								w = 1
							}
							if count[schedule.Op{Kind: schedule.Fwd, Chunk: v, MB: m}] != 1 || count[schedule.Op{Kind: schedule.Bwd, Chunk: v, MB: m}] != 1 || count[schedule.Op{Kind: schedule.WGrad, Chunk: v, MB: m}] != w {
								t.Fatalf("S=%d V=%d M=%d stage %d chunk %d mb %d: %d F, %d B, %d W",
									S, V, M, stage, v, m, count[schedule.Op{Kind: schedule.Fwd, Chunk: v, MB: m}], count[schedule.Op{Kind: schedule.Bwd, Chunk: v, MB: m}], count[schedule.Op{Kind: schedule.WGrad, Chunk: v, MB: m}])
							}
						}
					}
				}
			}
		}
	}
	if got := (schedule.Op{Kind: schedule.WGrad, Chunk: 1, MB: 3}).String(); got != "W(c1,m3)" {
		t.Fatalf("W op prints %q", got)
	}
	if got := (schedule.Op{Kind: schedule.Bwd, Chunk: 0, MB: 2}).String(); got != "B(c0,m2)" {
		t.Fatalf("B op prints %q", got)
	}
}

// TestScheduleWarmupDepth pins the 1F1B memory bound: the number of
// in-flight forwards on a stage never exceeds warmup+1.
func TestScheduleWarmupDepth(t *testing.T) {
	stages, micro := 4, 12
	for s := 0; s < stages; s++ {
		warmup := stages - 1 - s
		inflight, peak := 0, 0
		for _, op := range schedule.Schedule(s, stages, 1, micro) {
			switch op.Kind {
			case schedule.Fwd:
				inflight++
			case schedule.Bwd:
				inflight--
			}
			if inflight > peak {
				peak = inflight
			}
		}
		if peak > warmup+1 {
			t.Fatalf("stage %d: %d in-flight activations, want <= %d", s, peak, warmup+1)
		}
		if inflight != 0 {
			t.Fatalf("stage %d: schedule leaves %d forwards unmatched", s, inflight)
		}
	}
}

// TestScheduleDeterministic pins replayability: two constructions of
// the same schedule are identical (the -count=2 verify gate re-runs
// the full 1F1B engine test on top of this).
func TestScheduleDeterministic(t *testing.T) {
	a := schedule.Schedule(1, 4, 2, 8)
	b := schedule.Schedule(1, 4, 2, 8)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("schedule not deterministic")
	}
}
