// Package trace records per-rank, per-phase timeline events and
// exports them in the Chrome trace-event JSON format (load via
// chrome://tracing or Perfetto). Large-scale training is debugged
// with timelines, not printf: the breakdown experiments use this to
// show where a step's time goes on every simulated rank.
package trace

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
)

// Event is one completed span on a rank's timeline. Times are in
// microseconds (the Chrome trace unit); they may be wall-clock or
// virtual time — the recorder does not care, only ordering matters.
type Event struct {
	Name  string  // phase name, e.g. "dispatch-a2a"
	Rank  int     // timeline row
	Start float64 // µs
	Dur   float64 // µs
	Args  map[string]any
}

// Recorder collects events from concurrently running ranks.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Add records a completed span. Safe for concurrent use.
func (r *Recorder) Add(e Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, e)
}

// Events returns a stable copy sorted by (rank, start).
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	out := append([]Event(nil), r.events...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Start < out[j].Start
	})
	return out
}

// chromeEvent is the on-disk trace-event schema ("X" = complete
// event; pid groups the whole job, tid is the rank).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace emits the Chrome trace-event JSON array.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	evs := r.Events()
	out := make([]chromeEvent, len(evs))
	for i, e := range evs {
		out[i] = chromeEvent{
			Name: e.Name, Cat: "sim", Ph: "X",
			Ts: e.Start, Dur: e.Dur, Pid: 0, Tid: e.Rank, Args: e.Args,
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": out})
}

// WriteFile writes the Chrome trace to path.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
