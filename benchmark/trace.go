package main

import (
	"os"
	"path/filepath"
	"sync"
	"time"

	"bagualu/internal/trace"
)

// span is one timed call the benchmark made into the program. Spans are
// recorded from the benchmark's own files, around public entry points;
// spans inside the program are the telemetry-spine issue's job.
type span struct {
	Name     string
	Start    time.Duration // since the tracer's epoch
	End      time.Duration
	Parent   int // index of the enclosing span, -1 at the root
	Workload string
	Args     map[string]float64 // counter snapshots taken at the boundary
}

// tracer collects spans in memory; a nil tracer records nothing, so
// untraced runs pay one nil check per boundary.
type tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []span
	stack    []int // open spans of the driving goroutine
}

func newTracer(workload string) *tracer {
	return &tracer{epoch: time.Now(), workload: workload}
}

// begin opens a span under the innermost open span and returns its id.
// Only the benchmark's driving goroutine (or rank 0 inside a world)
// opens spans, so the stack needs no per-goroutine split.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), Parent: parent, Workload: t.workload})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, attaching the counters snapshotted at its close.
func (t *tracer) end(id int, args map[string]float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = time.Since(t.epoch)
	t.spans[id].Args = args
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == id {
			t.stack = t.stack[:i]
			break
		}
	}
}

// selfSeconds is a span's duration minus the part its children cover.
func (t *tracer) selfSeconds() map[string]float64 {
	if t == nil {
		return nil
	}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for i, s := range t.spans {
		self[s.Name] += (s.End - s.Start - child[i]).Seconds()
	}
	return self
}

// write emits the spans as Chrome-trace JSON (chrome://tracing,
// ui.perfetto.dev) through the repo's own exporter: one complete event
// per span, with the parent index, the workload and the counters
// snapshotted at the span's close as arguments.
func (t *tracer) write(path string) error {
	rec := trace.New()
	for _, s := range t.spans {
		args := map[string]any{"parent": s.Parent, "workload": s.Workload}
		for k, v := range s.Args {
			args[k] = v
		}
		rec.Add(trace.Event{Name: s.Name, Start: s.Start.Seconds() * 1e6, Dur: (s.End - s.Start).Seconds() * 1e6, Args: args})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return rec.WriteFile(path)
}
