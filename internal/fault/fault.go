// Package fault is a deterministic, seedable fault injector for the
// simulated world. BaGuaLu-scale machines fail constantly — at 96,000
// nodes even a generous per-node MTBF puts the machine-level MTBF in
// the minutes-to-hours range — so the reproduction's experiments need
// reproducible failures: the same seed must yield the same crash
// schedule, the same straggler set, and the same wire-fault pattern,
// run after run, or goodput comparisons across checkpoint intervals
// measure noise instead of policy.
//
// The injector precomputes the whole schedule at construction (crash
// times drawn from an exponential inter-arrival process, stragglers
// and their delay multipliers from independent streams) and derives
// wire faults from a stateless hash of (src, dst, seq), so nothing
// depends on goroutine interleaving.
package fault

import (
	"fmt"
	"math"
	"sort"

	"bagualu/internal/mpi"
	"bagualu/internal/tensor"
)

// Config parameterizes one fault schedule.
type Config struct {
	Seed  uint64
	Ranks int // world size
	Steps int // run length the schedule spans

	// MTBFSteps is the mean time between rank crashes, in steps,
	// across the whole world (exponential inter-arrivals). 0 disables
	// crashes.
	MTBFSteps float64
	// MaxCrashes caps the number of crash events (0 means unlimited
	// within Steps).
	MaxCrashes int

	// Stragglers picks this many ranks to run slow for the whole run.
	Stragglers int
	// StragglerMult is the delay multiplier applied to a straggler's
	// links (default 4).
	StragglerMult float64

	// CorruptProb / DropProb are per-message probabilities of a wire
	// payload being corrupted or destroyed. Kept out of the crash
	// schedule: they are evaluated per message via a stateless hash.
	CorruptProb float64
	DropProb    float64
}

// EventKind labels one scheduled fault.
type EventKind int

const (
	// EventCrash is a fail-stop of a rank at a step boundary.
	EventCrash EventKind = iota
	// EventStraggler is a rank running slow for the whole run.
	EventStraggler
)

func (k EventKind) String() string {
	if k == EventCrash {
		return "crash"
	}
	return "straggler"
}

// Event is one scheduled fault.
type Event struct {
	Kind EventKind
	Rank int
	Step int     // crash: step boundary at which the rank dies
	Mult float64 // straggler: delay multiplier
}

func (e Event) String() string {
	if e.Kind == EventCrash {
		return fmt.Sprintf("crash(rank=%d, step=%d)", e.Rank, e.Step)
	}
	return fmt.Sprintf("straggler(rank=%d, x%.1f)", e.Rank, e.Mult)
}

// Injector holds a precomputed fault schedule.
type Injector struct {
	cfg     Config
	events  []Event
	crashAt []int // per rank: step boundary of its crash, -1 if none
}

// New draws the schedule from cfg. Crash inter-arrival times are
// exponential with mean MTBFSteps; victims are uniform over ranks not
// already dead. Stragglers are drawn without replacement from the
// surviving-at-step-0 population.
func New(cfg Config) (*Injector, error) {
	if cfg.Ranks <= 0 || cfg.Steps <= 0 {
		return nil, fmt.Errorf("fault: ranks %d / steps %d", cfg.Ranks, cfg.Steps)
	}
	if cfg.CorruptProb < 0 || cfg.DropProb < 0 || cfg.CorruptProb+cfg.DropProb > 1 {
		return nil, fmt.Errorf("fault: invalid wire fault probabilities %v + %v", cfg.CorruptProb, cfg.DropProb)
	}
	if cfg.StragglerMult == 0 {
		cfg.StragglerMult = 4
	}
	if cfg.StragglerMult < 1 {
		return nil, fmt.Errorf("fault: straggler multiplier %v < 1", cfg.StragglerMult)
	}
	inj := &Injector{cfg: cfg, crashAt: make([]int, cfg.Ranks)}
	for i := range inj.crashAt {
		inj.crashAt[i] = -1
	}
	root := tensor.NewRNG(cfg.Seed)
	crashRNG := root.Split()
	stragRNG := root.Split()

	if cfg.MTBFSteps > 0 {
		dead := make(map[int]bool)
		at := 0.0
		for {
			// Exponential gap; at least the next step boundary.
			u := crashRNG.Float64()
			at += -cfg.MTBFSteps * math.Log(1-u)
			step := int(at)
			if step < 1 {
				step = 1
			}
			if step >= cfg.Steps || len(dead) >= cfg.Ranks-1 {
				break
			}
			if cfg.MaxCrashes > 0 && len(dead) >= cfg.MaxCrashes {
				break
			}
			victim := crashRNG.Intn(cfg.Ranks)
			for dead[victim] {
				victim = crashRNG.Intn(cfg.Ranks)
			}
			dead[victim] = true
			inj.crashAt[victim] = step
			inj.events = append(inj.events, Event{Kind: EventCrash, Rank: victim, Step: step})
		}
	}
	if cfg.Stragglers > 0 {
		pool := make([]int, 0, cfg.Ranks)
		for r := 0; r < cfg.Ranks; r++ {
			if inj.crashAt[r] < 0 {
				pool = append(pool, r)
			}
		}
		n := cfg.Stragglers
		if n > len(pool) {
			n = len(pool)
		}
		for i := 0; i < n; i++ {
			j := i + stragRNG.Intn(len(pool)-i)
			pool[i], pool[j] = pool[j], pool[i]
			inj.events = append(inj.events, Event{
				Kind: EventStraggler, Rank: pool[i], Mult: cfg.StragglerMult,
			})
		}
	}
	sort.SliceStable(inj.events, func(i, j int) bool { return inj.events[i].Step < inj.events[j].Step })
	return inj, nil
}

// Scripted builds an injector with an explicit event list instead of a
// drawn schedule — tests and demos that need a failure at a precise
// (rank, step). Wire-fault probabilities and the seed still come from
// cfg; MTBFSteps/Stragglers in cfg are ignored.
func Scripted(cfg Config, events []Event) (*Injector, error) {
	if cfg.Ranks <= 0 || cfg.Steps <= 0 {
		return nil, fmt.Errorf("fault: ranks %d / steps %d", cfg.Ranks, cfg.Steps)
	}
	if cfg.CorruptProb < 0 || cfg.DropProb < 0 || cfg.CorruptProb+cfg.DropProb > 1 {
		return nil, fmt.Errorf("fault: invalid wire fault probabilities %v + %v", cfg.CorruptProb, cfg.DropProb)
	}
	inj := &Injector{cfg: cfg, crashAt: make([]int, cfg.Ranks)}
	for i := range inj.crashAt {
		inj.crashAt[i] = -1
	}
	for _, e := range events {
		if e.Rank < 0 || e.Rank >= cfg.Ranks {
			return nil, fmt.Errorf("fault: event rank %d out of range", e.Rank)
		}
		switch e.Kind {
		case EventCrash:
			if e.Step < 1 || e.Step >= cfg.Steps {
				return nil, fmt.Errorf("fault: crash step %d outside (0, %d)", e.Step, cfg.Steps)
			}
			if inj.crashAt[e.Rank] >= 0 {
				return nil, fmt.Errorf("fault: rank %d crashes twice", e.Rank)
			}
			inj.crashAt[e.Rank] = e.Step
		case EventStraggler:
			if e.Mult < 1 {
				return nil, fmt.Errorf("fault: straggler multiplier %v < 1", e.Mult)
			}
		}
		inj.events = append(inj.events, e)
	}
	sort.SliceStable(inj.events, func(i, j int) bool { return inj.events[i].Step < inj.events[j].Step })
	return inj, nil
}

// CrashesAt reports whether rank is scheduled to die entering step.
func (inj *Injector) CrashesAt(rank, step int) bool {
	return inj.crashAt[rank] >= 0 && inj.crashAt[rank] == step
}

// StragglerOf returns rank's scheduled delay multiplier: its straggler
// event's Mult, or 1 when the rank runs at full speed. The fleet router
// uses it to stretch a whole replica's clock domain when the schedule's
// "ranks" are replicas rather than individual processes.
func (inj *Injector) StragglerOf(rank int) float64 {
	for _, e := range inj.events {
		if e.Kind == EventStraggler && e.Rank == rank {
			return e.Mult
		}
	}
	return 1
}

// Arm installs the schedule's ambient faults on a world: straggler
// delay multipliers and, when configured, the per-message wire-fault
// hook. Crash events are NOT installed here — they are step-boundary
// decisions the training loop makes by asking CrashesAt, because only
// the loop knows where a step boundary is.
func (inj *Injector) Arm(w *mpi.World) {
	for _, e := range inj.events {
		if e.Kind == EventStraggler {
			w.SetRankDelay(e.Rank, e.Mult)
		}
	}
	if inj.cfg.CorruptProb > 0 || inj.cfg.DropProb > 0 {
		seed, corrupt, drop := inj.cfg.Seed, inj.cfg.CorruptProb, inj.cfg.DropProb
		w.SetWireFaultFn(func(src, dst int, seq int64) mpi.WireFault {
			u := hashUnit(seed, uint64(src), uint64(dst), uint64(seq))
			switch {
			case u < drop:
				return mpi.WireDrop
			case u < drop+corrupt:
				return mpi.WireCorrupt
			default:
				return mpi.WireOK
			}
		})
	}
}

// hashUnit maps (seed, src, dst, seq) to a uniform [0,1) value with a
// SplitMix64-style finalizer — stateless, so the verdict for a given
// message is independent of delivery order.
func hashUnit(seed, src, dst, seq uint64) float64 {
	z := seed ^ src*0x9e3779b97f4a7c15 ^ dst*0xbf58476d1ce4e5b9 ^ seq*0x94d049bb133111eb
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}
