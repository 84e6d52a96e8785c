package fault

import (
	"reflect"
	"testing"

	"bagualu/internal/mpi"
)

// The whole point of the injector: the same seed must reproduce the
// same schedule exactly, and a different seed must not.
func TestFaultScheduleDeterministic(t *testing.T) {
	cfg := Config{
		Seed: 42, Ranks: 16, Steps: 200, MTBFSteps: 40,
		Stragglers: 2, StragglerMult: 6, CorruptProb: 0.001, DropProb: 0.001,
	}
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(cfg)
	if !reflect.DeepEqual(a.events, b.events) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", a.events, b.events)
	}
	if len(a.events) == 0 {
		t.Fatal("schedule empty — parameters should produce events")
	}
	cfg.Seed = 43
	c, _ := New(cfg)
	if reflect.DeepEqual(a.events, c.events) {
		t.Fatal("different seeds produced identical schedules")
	}

	// The wire-fault verdict stream is deterministic too.
	w1 := mpi.NewWorld(cfg.Ranks, nil)
	w2 := mpi.NewWorld(cfg.Ranks, nil)
	c.Arm(w1)
	c2, _ := New(cfg)
	c2.Arm(w2)
}

func TestCrashScheduleShape(t *testing.T) {
	inj, err := New(Config{Seed: 7, Ranks: 8, Steps: 100, MTBFSteps: 10, MaxCrashes: 3})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, e := range inj.events {
		if e.Kind != EventCrash {
			continue
		}
		if e.Step < 1 || e.Step >= 100 {
			t.Fatalf("crash outside run: %v", e)
		}
		if seen[e.Rank] {
			t.Fatalf("rank %d crashes twice", e.Rank)
		}
		seen[e.Rank] = true
		if !inj.CrashesAt(e.Rank, e.Step) || inj.crashAt[e.Rank] != e.Step {
			t.Fatalf("lookup disagrees with schedule: %v", e)
		}
	}
	if got := len(seen); got == 0 || got > 3 {
		t.Fatalf("crashes = %d, want 1..3", got)
	}
}

func TestStragglersAvoidCrashedRanks(t *testing.T) {
	inj, err := New(Config{Seed: 5, Ranks: 6, Steps: 50, MTBFSteps: 5, Stragglers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range inj.events {
		if e.Kind == EventStraggler && inj.crashAt[e.Rank] >= 0 {
			t.Fatalf("straggler %d is also scheduled to crash", e.Rank)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Ranks: 0, Steps: 10}); err == nil {
		t.Fatal("ranks=0 accepted")
	}
	if _, err := New(Config{Ranks: 4, Steps: 10, CorruptProb: 0.9, DropProb: 0.9}); err == nil {
		t.Fatal("probabilities summing >1 accepted")
	}
	if _, err := New(Config{Ranks: 4, Steps: 10, StragglerMult: 0.5}); err == nil {
		t.Fatal("sub-unit straggler multiplier accepted")
	}
}

// Armed wire faults must actually fire on a world with matching
// probabilities — and fire identically across two worlds.
func TestArmedWireFaultsFire(t *testing.T) {
	cfg := Config{Seed: 9, Ranks: 2, Steps: 10, DropProb: 0.2}
	run := func() (drops int) {
		inj, _ := New(cfg)
		w := mpi.NewWorld(2, nil)
		inj.Arm(w)
		w.Run(func(c *mpi.Comm) {
			for i := 0; i < 50; i++ {
				if c.Rank() == 0 {
					c.SendMsg(1, i, []float32{1, 2}, nil)
				} else {
					if err := mpi.Protect(func() { c.Recv(0, i) }); err != nil {
						drops++
					}
				}
			}
		})
		return drops
	}
	a, b := run(), run()
	if a == 0 {
		t.Fatal("20% drop probability over 50 messages never fired")
	}
	if a != b {
		t.Fatalf("wire-fault pattern not reproducible: %d vs %d", a, b)
	}
}
