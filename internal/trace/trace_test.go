package trace

import (
	"bytes"
	"encoding/json"
	"os"
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

func TestConcurrentAdds(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for rank := 0; rank < 8; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Add(Event{Name: "work", Rank: rank, Start: float64(i), Dur: 0.5})
			}
		}(rank)
	}
	wg.Wait()
	if n := len(r.Events()); n != 800 {
		t.Fatalf("len = %d", n)
	}
}

func TestChromeTraceJSONValid(t *testing.T) {
	r := New()
	r.Add(Event{Name: "fwd", Rank: 0, Start: 0, Dur: 1000})
	r.Add(Event{Name: "bwd", Rank: 0, Start: 1000, Dur: 2000})
	r.Add(Event{Name: "fwd", Rank: 1, Start: 0, Dur: 1200})
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

func TestWriteFile(t *testing.T) {
	r := New()
	r.Add(Event{Name: "x", Rank: 0, Start: 0, Dur: 1e6})
	path := t.TempDir() + "/trace.json"
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := r.WriteChromeTrace(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("file %q, want %q", got, want.Bytes())
	}
}
