// Package health classifies ranks as healthy, degraded, or failed
// from link-delay telemetry, the middle tier of the graceful-
// degradation stack. The mpi runtime records the observed slowdown of
// every (sender -> receiver) link (see mpi transport telemetry); each
// training step those observations are aggregated over the supernode
// hierarchy (telemetry.go) into one slowness score per rank, and a
// Monitor folds the per-step scores through an EWMA with hysteresis
// so transient noise (a retransmit burst, one slow collective) does
// not flap the classification. Sustained degradation is what the
// parallel layer acts on — resharding experts away from the laggard —
// while failure remains the domain of the mpi failed bitmap.
package health

import "fmt"

// State is a rank's health classification.
type State int

const (
	// Healthy ranks run at nominal speed.
	Healthy State = iota
	// Degraded ranks show sustained link slowdown (stragglers); work
	// should be migrated away from them, but they remain correct.
	Degraded
	// Failed ranks are fail-stop dead (mirrors the mpi failed bitmap);
	// the monitor never reclassifies them.
	Failed
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Config tunes the classifier. Zero fields take the defaults noted on
// each field.
type Config struct {
	// Alpha is the EWMA weight of the newest score (default 0.5).
	Alpha float64
	// DegradedAt: an EWMA score at or above this multiplier counts as
	// degradation evidence (default 2.0).
	DegradedAt float64
	// RecoverAt: an EWMA score at or below this multiplier counts as
	// recovery evidence; the gap to DegradedAt is the hysteresis band
	// (default 1.5).
	RecoverAt float64
	// Window is the number of consecutive evidence steps required
	// before a state transition (default 3).
	Window int
	// MinDwell is the minimum number of observed samples a rank must
	// spend in a state before it may transition again (default
	// 2×Window). Without it, delay samples oscillating across the
	// hysteresis band flap the classification every Window steps —
	// and every flap is an expensive resharding or routing change
	// downstream. The dwell bounds transitions to at most one per
	// MinDwell samples regardless of how adversarial the input is.
	MinDwell int
}

func (c Config) withDefaults() Config {
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.5
	}
	if c.DegradedAt <= 1 {
		c.DegradedAt = 2.0
	}
	if c.RecoverAt <= 0 || c.RecoverAt >= c.DegradedAt {
		c.RecoverAt = 1 + (c.DegradedAt-1)/2
	}
	if c.Window <= 0 {
		c.Window = 3
	}
	if c.MinDwell <= 0 {
		c.MinDwell = 2 * c.Window
	}
	return c
}

// Monitor is the per-rank health state machine. It is driven from a
// single goroutine (each rank runs its own replica; identical inputs
// yield identical classifications, so no coordination is needed).
type Monitor struct {
	cfg   Config
	ewma  []float64
	seen  []bool
	hot   []int // consecutive steps of degradation evidence
	cool  []int // consecutive steps of recovery evidence
	since []int // observed samples since the last transition
	state []State
}

// NewMonitor creates a monitor over n ranks, all initially Healthy.
func NewMonitor(n int, cfg Config) *Monitor {
	m := &Monitor{
		cfg:   cfg.withDefaults(),
		ewma:  make([]float64, n),
		seen:  make([]bool, n),
		hot:   make([]int, n),
		cool:  make([]int, n),
		since: make([]int, n),
		state: make([]State, n),
	}
	// A fresh rank has no pending transition to damp: start every dwell
	// counter satisfied so the first classification is not delayed.
	for r := range m.since {
		m.since[r] = m.cfg.MinDwell
	}
	return m
}

// Observe folds one round of slowness scores (indexed like the
// monitor; 0 or negative = no sample this round) and returns the
// ranks whose classification changed, ascending.
func (m *Monitor) Observe(scores []float64) []int {
	var changed []int
	for r := 0; r < len(m.state) && r < len(scores); r++ {
		s := scores[r]
		if s <= 0 || m.state[r] == Failed {
			continue
		}
		if !m.seen[r] {
			m.ewma[r], m.seen[r] = s, true
		} else {
			m.ewma[r] += m.cfg.Alpha * (s - m.ewma[r])
		}
		if m.since[r] < m.cfg.MinDwell {
			m.since[r]++
		}
		switch e := m.ewma[r]; {
		case e >= m.cfg.DegradedAt:
			m.hot[r]++
			m.cool[r] = 0
		case e <= m.cfg.RecoverAt:
			m.cool[r]++
			m.hot[r] = 0
		default: // hysteresis band: no evidence either way
			m.hot[r], m.cool[r] = 0, 0
		}
		if m.since[r] < m.cfg.MinDwell {
			continue // still dwelling: evidence accumulates, no flip yet
		}
		switch {
		case m.state[r] == Healthy && m.hot[r] >= m.cfg.Window:
			m.state[r] = Degraded
			m.since[r] = 0
			changed = append(changed, r)
		case m.state[r] == Degraded && m.cool[r] >= m.cfg.Window:
			m.state[r] = Healthy
			m.since[r] = 0
			changed = append(changed, r)
		}
	}
	return changed
}

// MarkFailed pins a rank to Failed (fail-stop observed by the mpi
// layer). Irreversible — except through Reset, which models the slot
// being re-occupied by a fresh process.
func (m *Monitor) MarkFailed(r int) {
	if r >= 0 && r < len(m.state) {
		m.state[r] = Failed
	}
}

// Reset returns a rank to Healthy with a clean slate — no EWMA
// history, no evidence counters, dwell satisfied. A serving fleet
// calls it when a crashed replica's slot is re-occupied by a restored
// process: the new occupant's speed is independent of the old one's,
// so carrying the dead process's telemetry over would misclassify it.
func (m *Monitor) Reset(r int) {
	if r < 0 || r >= len(m.state) {
		return
	}
	m.state[r] = Healthy
	m.ewma[r] = 0
	m.seen[r] = false
	m.hot[r], m.cool[r] = 0, 0
	m.since[r] = m.cfg.MinDwell
}

// State returns a rank's current classification.
func (m *Monitor) State(r int) State { return m.state[r] }

// Degraded lists the ranks currently classified Degraded, ascending.
func (m *Monitor) Degraded() []int {
	var out []int
	for r, s := range m.state {
		if s == Degraded {
			out = append(out, r)
		}
	}
	return out
}
