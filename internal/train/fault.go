package train

import "fmt"

// Escalation selects how the fault-tolerant loop responds to faults
// below fail-stop severity — the tiered graceful-degradation policy.
type Escalation int

const (
	// EscalateRollback is the PR 3 behavior and the zero value: every
	// wire fault is converted to fail-stop of the sender and handled
	// by shrink + checkpoint rollback. No retransmission, no health
	// monitoring.
	EscalateRollback Escalation = iota
	// EscalateRetransmit arms the reliable wire transport (tier 1):
	// transient drops/corruption are absorbed by retry with backoff,
	// and health telemetry is collected, but no mitigation acts on it.
	// Retransmit exhaustion and dead ranks still escalate to rollback.
	EscalateRetransmit
	// EscalateTiered is the full policy: retransmit for transient wire
	// faults (tier 1), expert resharding away from ranks classified
	// degraded (tier 2), shrink + rollback only for dead ranks or
	// retransmit exhaustion (tier 3).
	EscalateTiered
)

func (e Escalation) String() string {
	switch e {
	case EscalateRollback:
		return "rollback"
	case EscalateRetransmit:
		return "retransmit"
	case EscalateTiered:
		return "tiered"
	}
	return fmt.Sprintf("Escalation(%d)", int(e))
}

// FaultPolicy configures the fault-tolerant training loop (the
// parallel engine's RunFaultTolerant): where sharded checkpoints go,
// how often they are taken, whether the flush overlaps training on
// the virtual clock, and how many in-run recoveries to attempt before
// giving up, and which degradation tiers act before a rollback. It
// lives in train beside Escalation; internal/ckpt knows bytes and
// files, not policy.
type FaultPolicy struct {
	// Dir is the checkpoint root; shards land in Dir/step-N/.
	Dir string
	// Interval takes a sharded checkpoint every Interval steps
	// (0 disables checkpointing — failures are then unrecoverable).
	Interval int
	// Async snapshots parameters into pooled buffers at a memcpy cost
	// and flushes in the background, overlapping the next steps on the
	// virtual clock; sync mode charges the full disk write per
	// checkpoint step.
	Async bool
	// DiskBWGiBs is the modeled checkpoint-disk bandwidth per rank in
	// GiB/s (0 means 1 GiB/s).
	DiskBWGiBs float64
	// MaxRecoveries bounds in-run recoveries (0 means 1).
	MaxRecoveries int

	// Escalation selects the graceful-degradation tiers; the zero
	// value keeps the PR 3 always-rollback behavior.
	Escalation Escalation
}

// Enabled reports whether the policy actually checkpoints.
func (p *FaultPolicy) Enabled() bool {
	return p != nil && p.Dir != "" && p.Interval > 0
}
