package metrics

import (
	"strings"
	"testing"
)

func TestEWMA(t *testing.T) {
	e := EWMA{Alpha: 0.5}
	e.Add(10)
	if e.Value() != 10 {
		t.Fatalf("first sample = %v", e.Value())
	}
	e.Add(20)
	if e.Value() != 15 {
		t.Fatalf("after second sample = %v", e.Value())
	}
	var d EWMA // default alpha
	d.Add(1)
	d.Add(2)
	if d.Value() <= 1 || d.Value() >= 2 {
		t.Fatalf("default alpha value = %v", d.Value())
	}
}

func TestTableText(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("beta", 42)
	if tb.Rows() != 2 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
	var sb strings.Builder
	if err := tb.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"## demo", "name", "alpha", "1.5", "42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow(float32(0.25), "x")
	var sb strings.Builder
	if err := tb.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "a,b\n0.25,x\n" {
		t.Fatalf("csv = %q", sb.String())
	}
}

func TestPhaseMeter(t *testing.T) {
	p := NewPhaseMeter("dispatch", "expert", "combine")
	p.Observe("dispatch", 1)
	p.Observe("combine", 2)
	p.Observe("dispatch", 0.5)
	if got := p.Seconds("dispatch"); got != 1.5 {
		t.Fatalf("dispatch = %v", got)
	}
	if got := p.Seconds("missing"); got != 0 {
		t.Fatalf("unknown phase = %v", got)
	}
	p.Observe("extra", 3) // unknown names append, never drop
	names := p.Names()
	if len(names) != 4 || names[3] != "extra" {
		t.Fatalf("names = %v", names)
	}
	if got := p.Total(); got != 6.5 {
		t.Fatalf("Total = %v", got)
	}
	p.Reset()
	if p.Total() != 0 || len(p.Names()) != 4 {
		t.Fatal("Reset must zero but keep the phase set")
	}
}
