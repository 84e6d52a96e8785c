package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestAddAndEventsSorted(t *testing.T) {
	r := New()
	r.Add(Event{Name: "b", Rank: 1, Start: 5, Dur: 1})
	r.Add(Event{Name: "a", Rank: 0, Start: 10, Dur: 2})
	r.Add(Event{Name: "c", Rank: 0, Start: 1, Dur: 3})
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("len = %d", len(evs))
	}
	if evs[0].Name != "c" || evs[1].Name != "a" || evs[2].Name != "b" {
		t.Fatalf("order = %v %v %v", evs[0].Name, evs[1].Name, evs[2].Name)
	}
}

func TestSpanConvertsSecondsToMicros(t *testing.T) {
	r := New()
	r.Span("phase", 2, 1.0, 1.5)
	e := r.Events()[0]
	if e.Start != 1e6 || e.Dur != 0.5e6 || e.Rank != 2 {
		t.Fatalf("event %+v", e)
	}
}

func TestConcurrentAdds(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for rank := 0; rank < 8; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Span("work", rank, float64(i), float64(i)+0.5)
			}
		}(rank)
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Fatalf("len = %d", r.Len())
	}
}

func TestChromeTraceJSONValid(t *testing.T) {
	r := New()
	r.Span("fwd", 0, 0, 0.001)
	r.Span("bwd", 0, 0.001, 0.003)
	r.Span("fwd", 1, 0, 0.0012)
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events", len(doc.TraceEvents))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "X" || e.Dur <= 0 {
			t.Fatalf("bad event %+v", e)
		}
	}
}

func TestWriteFileAndReset(t *testing.T) {
	r := New()
	r.Span("x", 0, 0, 1)
	path := t.TempDir() + "/trace.json"
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestSummary(t *testing.T) {
	r := New()
	r.Span("a", 0, 0, 1)   // 1e6 µs
	r.Span("a", 1, 0, 0.5) // 5e5 µs
	r.Span("b", 0, 0, 0.25)
	sum := r.Summary()
	if sum["a"] != 1.5e6 || sum["b"] != 0.25e6 {
		t.Fatalf("summary %v", sum)
	}
	txt := r.FormatSummary()
	if !strings.Contains(txt, "a") || !strings.Contains(txt, "b") {
		t.Fatalf("format %q", txt)
	}
	// Descending order: "a" first.
	if strings.Index(txt, "a") > strings.Index(txt, "b") {
		t.Fatal("summary not sorted by time")
	}
}
