// Package metrics provides the small measurement plumbing shared by
// the benchmark harness and the command-line tools: histograms, phase
// meters, and an aligned table/CSV emitter for experiment output.
package metrics

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows and renders either an aligned text table or
// CSV; every experiment harness reports through it so outputs are
// uniform and machine-readable.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; values are formatted with %v (floats get %g).
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.6g", v)
		case float32:
			row[i] = fmt.Sprintf("%.6g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// WriteText renders an aligned table.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "## %s\n", t.Title)
	}
	for i, h := range t.headers {
		fmt.Fprintf(&b, "%-*s  ", widths[i], h)
	}
	b.WriteByte('\n')
	for i := range t.headers {
		b.WriteString(strings.Repeat("-", widths[i]))
		b.WriteString("  ")
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		for i, c := range r {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteCSV renders comma-separated values with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString(strings.Join(t.headers, ","))
	b.WriteByte('\n')
	for _, r := range t.rows {
		b.WriteString(strings.Join(r, ","))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Canonical phase names for the fault-tolerance subsystem, shared by
// train.Metrics, the recovery loop, and the CLI tables so checkpoint
// overhead is attributed consistently everywhere it is displayed.
const (
	PhaseCkptSnapshot   = "ckpt-snapshot"   // copying params into pooled buffers
	PhaseCkptFlush      = "ckpt-flush"      // disk write (or stall on a pending one)
	PhaseRecovery       = "recovery"        // rollback + re-form + restore after a failure
	PhaseRecoveryRead   = "recovery-read"   // of which: a survivor's disk read of its own slice of the state
	PhaseRecoveryGather = "recovery-gather" // of which: replica groups all-gathering the rest
	PhaseRetransmit     = "retransmit"      // ack timeouts + backoff of the reliable transport
	PhaseMitigation     = "mitigation"      // expert resharding away from degraded ranks
)

// Canonical phase names for the serving fleet, shared by the fleet
// router and the CLI tables.
const (
	PhaseRestore = "fleet-restore" // re-reading weights into a crashed replica
	PhaseWarmup  = "fleet-warmup"  // probe decode before a restored replica rejoins
)

// Canonical phase names for the memory-capacity subsystem (ZeRO-style
// sharded optimizer, selective recomputation, host-memory offload),
// shared by the parallel engine and the CLI step report.
const (
	PhaseGradSync       = "grad-sync"       // gradient all-reduce (replicated) or reduce-scatter (ZeRO)
	PhaseOptimizerShard = "optimizer-shard" // local Adam update of the owned moment shard
	PhaseParamGather    = "param-gather"    // all-gather of updated parameters
	PhaseRecompute      = "recompute"       // activation-recomputation forward replay
	PhaseOffload        = "offload"         // optimizer-state traffic to/from host memory
)

// Canonical phase names for the parallel engine's step.
const (
	// PhaseBubble is virtual time a pipeline stage spends stalled
	// waiting for a boundary activation or gradient to arrive — the
	// pipeline bubble, including the blocking transfer's wire latency.
	PhaseBubble = "pipe-bubble"
	// PhaseCompute is virtual time charged for model FLOPs: the
	// pipeline runner's chunk passes (their recompute replays are
	// PhaseRecompute), the expert GEMMs MoE layers price inline, and
	// serving steps.
	PhaseCompute = "compute"
)

// PhaseMeter accumulates seconds into named phases in a fixed
// presentation order. Each simulated rank owns one (mpi.Comm.Phases):
// the record of where its virtual time went, booked where the clock is
// charged. A report builds its own to render a sweep's totals as one
// table. The zero value is an empty meter, ready to use.
type PhaseMeter struct {
	names []string
	idx   map[string]int
	secs  []float64
}

// NewPhaseMeter fixes the phase set and its display order.
func NewPhaseMeter(names ...string) *PhaseMeter {
	p := &PhaseMeter{}
	for _, n := range names {
		p.Observe(n, 0)
	}
	return p
}

// Observe adds secs to a phase; unknown names are appended at the
// end so callers never lose samples.
func (p *PhaseMeter) Observe(name string, secs float64) {
	i, ok := p.idx[name]
	if !ok {
		if p.idx == nil {
			p.idx = map[string]int{}
		}
		i = len(p.names)
		p.names = append(p.names, name)
		p.idx[name] = i
		p.secs = append(p.secs, 0)
	}
	p.secs[i] += secs
}

// Seconds returns a phase's accumulated time (0 for unknown names).
func (p *PhaseMeter) Seconds(name string) float64 {
	if i, ok := p.idx[name]; ok {
		return p.secs[i]
	}
	return 0
}

// Names returns the phases in display order.
func (p *PhaseMeter) Names() []string { return p.names }

// Total sums all phases.
func (p *PhaseMeter) Total() float64 {
	var t float64
	for _, s := range p.secs {
		t += s
	}
	return t
}
