package health

import (
	"reflect"
	"sync"
	"testing"

	"bagualu/internal/mpi"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
)

// Degradation requires Window consecutive over-threshold EWMA steps;
// recovery requires Window consecutive under-threshold steps, with a
// hysteresis band between the two thresholds producing no evidence.
func TestMonitorHysteresis(t *testing.T) {
	m := NewMonitor(2, Config{Alpha: 1, DegradedAt: 2, RecoverAt: 1.5, Window: 2})
	feed := func(s float64) []int { return m.Observe([]float64{s, 1}) }

	if ch := feed(4); len(ch) != 0 {
		t.Fatalf("degraded after one step: %v", ch)
	}
	if ch := feed(4); !reflect.DeepEqual(ch, []int{0}) || m.State(0) != Degraded {
		t.Fatalf("not degraded after Window steps: %v state=%v", ch, m.State(0))
	}
	// In-band scores (1.5, 2) are not recovery evidence.
	feed(1.8)
	feed(1.8)
	if m.State(0) != Degraded {
		t.Fatal("recovered inside the hysteresis band")
	}
	feed(1.0)
	if m.State(0) != Degraded {
		t.Fatal("recovered after a single cool step")
	}
	if ch := feed(1.0); !reflect.DeepEqual(ch, []int{0}) || m.State(0) != Healthy {
		t.Fatalf("no recovery after Window cool steps: %v state=%v", ch, m.State(0))
	}
	if m.State(1) != Healthy {
		t.Fatalf("bystander flapped: %v", m.State(1))
	}
}

// A transient one-step spike must not flip the classification.
func TestMonitorIgnoresTransientSpike(t *testing.T) {
	m := NewMonitor(1, Config{}) // defaults: alpha .5, window 3
	for i := 0; i < 10; i++ {
		m.Observe([]float64{1})
	}
	m.Observe([]float64{8}) // retransmit burst
	for i := 0; i < 3; i++ {
		m.Observe([]float64{1})
	}
	if m.State(0) != Healthy {
		t.Fatalf("one spike degraded the rank: state=%v score=%v", m.State(0), m.ewma[0])
	}
}

// Failed is terminal: scores never resurrect a dead rank, and missing
// samples (score 0) leave state untouched.
func TestMonitorFailedIsTerminal(t *testing.T) {
	m := NewMonitor(2, Config{})
	m.MarkFailed(1)
	for i := 0; i < 8; i++ {
		m.Observe([]float64{0, 1})
	}
	if m.State(1) != Failed {
		t.Fatalf("failed rank resurrected: %v", m.State(1))
	}
	if m.State(0) != Healthy {
		t.Fatalf("unsampled rank changed state: %v", m.State(0))
	}
}

// The min-over-observers column reduction must score a straggler at
// its own multiplier while keeping healthy ranks at ~1 even though
// the straggler observes everyone as slow.
func TestScoreColumnsRobustToSlowObservers(t *testing.T) {
	// 3 ranks, rank 2 is a 4x straggler: every link touching rank 2
	// is observed at 4 (max of endpoints), others at 1.
	n := 3
	matrix := make([]float64, n*n)
	obs := func(dst, src int, v float64) { matrix[dst*n+src] = v }
	obs(0, 1, 1)
	obs(0, 2, 4)
	obs(1, 0, 1)
	obs(1, 2, 4)
	obs(2, 0, 4) // the straggler's own receives look slow too
	obs(2, 1, 4)
	got := scoreColumns(matrix, n)
	want := []float64{1, 1, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scores %v, want %v", got, want)
	}
}

// End-to-end over a real world: run traffic with one straggler, feed
// each rank's observation row through the hierarchical collection,
// and check every rank agrees on the scores, deterministically.
func TestCollectScoresEndToEnd(t *testing.T) {
	run := func() [][]float64 {
		topo := simnet.New(sunway.TestMachine(2, 2), 1) // 4 ranks, 2 supernodes
		w := mpi.NewWorld(4, topo)
		w.SetRankDelay(2, 4)
		out := make([][]float64, 4)
		var mu sync.Mutex
		w.Run(func(c *mpi.Comm) {
			// All-pairs traffic (the shape of the MoE all-to-all) so
			// every rank is observed directly by every other: a rank
			// whose only observer is a straggler cannot be
			// distinguished from one.
			buf := make([]float32, 2048)
			for iter := 0; iter < 3; iter++ {
				for p := 0; p < c.Size(); p++ {
					if p != c.Rank() {
						c.SendMsg(p, iter, buf, nil)
					}
				}
				for p := 0; p < c.Size(); p++ {
					if p != c.Rank() {
						c.Recv(p, iter)
					}
				}
			}
			scores := CollectScores(c, c.TakeLinkObservations())
			mu.Lock()
			out[c.Rank()] = scores
			mu.Unlock()
		})
		return out
	}
	first := run()
	for r := 1; r < 4; r++ {
		if !reflect.DeepEqual(first[r], first[0]) {
			t.Fatalf("rank %d disagrees: %v vs %v", r, first[r], first[0])
		}
	}
	s := first[0]
	if s[2] < 3.5 {
		t.Fatalf("straggler not detected: scores %v", s)
	}
	for _, r := range []int{0, 1, 3} {
		if s[r] > 1.5 {
			t.Fatalf("healthy rank %d over-scored: %v", r, s)
		}
	}
	if again := run(); !reflect.DeepEqual(again, first) {
		t.Fatalf("nondeterministic scores: %v vs %v", again, first)
	}
}

// Adversarial oscillation across the hysteresis band must not flap the
// classification: the dwell time bounds transitions to at most one per
// MinDwell observed samples, however the input alternates.
func TestMonitorDwellBoundsFlapping(t *testing.T) {
	const steps, dwell = 64, 8
	// Window 1 + alpha 1 is the worst case: every sample is instant
	// evidence, so without the dwell the state would flip every step.
	m := NewMonitor(1, Config{Alpha: 1, DegradedAt: 2, RecoverAt: 1.5, Window: 1, MinDwell: dwell})
	transitions := 0
	for i := 0; i < steps; i++ {
		s := 4.0 // degradation evidence
		if i%2 == 1 {
			s = 1.0 // recovery evidence
		}
		transitions += len(m.Observe([]float64{s}))
	}
	if max := steps/dwell + 1; transitions > max {
		t.Fatalf("oscillating samples caused %d transitions in %d steps (dwell %d allows at most %d)",
			transitions, steps, dwell, max)
	}
	if transitions == 0 {
		t.Fatal("dwell suppressed classification entirely")
	}
}

// Reset returns a rank to a fresh Healthy record: a restored replica
// is a new process whose old telemetry (including a terminal Failed
// mark) must not bias its new incarnation, and its first
// classification is not dwell-delayed.
func TestMonitorResetClearsHistory(t *testing.T) {
	m := NewMonitor(2, Config{Alpha: 1, DegradedAt: 2, RecoverAt: 1.5, Window: 2, MinDwell: 2})
	m.MarkFailed(0)
	if m.State(0) != Failed {
		t.Fatal("MarkFailed did not fail the rank")
	}
	m.Reset(0)
	if m.State(0) != Healthy || m.seen[0] {
		t.Fatalf("reset rank not fresh: state=%v, EWMA still seeded", m.State(0))
	}
	// Fresh incarnation degrades after exactly Window evidence steps —
	// no leftover dwell from the previous life.
	m.Observe([]float64{4, 1})
	if ch := m.Observe([]float64{4, 1}); len(ch) != 1 || ch[0] != 0 || m.State(0) != Degraded {
		t.Fatalf("reset rank did not classify freshly: %v state=%v", ch, m.State(0))
	}
	if m.State(1) != Healthy {
		t.Fatal("bystander disturbed by reset")
	}
}
