package perfmodel

// Layout validation: every inconsistent deployment is rejected with a
// typed *ConfigError naming the offending knob, instead of being
// silently mispriced. The autotuner's pruning stage depends on this —
// a layout the runtime would refuse (parallel.NewEngine) must be
// refused here too, or the analytic ranking would score configurations
// the machine cannot run.

import (
	"fmt"

	"bagualu/internal/sunway"
)

// ConfigError is the typed rejection of an inconsistent deployment or
// deployment/spec pairing. Field names the knob at fault (stable
// strings, matchable in tests): "deployment", "grid", "efficiency",
// "expert-parallel", "recompute", "wire", "pipeline".
type ConfigError struct {
	Field  string
	Detail string
}

// Error implements error.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("perfmodel: invalid %s: %s", e.Field, e.Detail)
}

// badConfig builds a *ConfigError with a formatted detail.
func badConfig(field, format string, args ...any) *ConfigError {
	return &ConfigError{Field: field, Detail: fmt.Sprintf(format, args...)}
}

// Validate checks spec-independent grid consistency.
func (d Deployment) Validate() error {
	if err := d.Machine.Validate(); err != nil {
		return err
	}
	if d.RanksPerNode <= 0 || d.BatchPerRank <= 0 {
		return badConfig("deployment", "non-positive ranks/node=%d or batch/rank=%d",
			d.RanksPerNode, d.BatchPerRank)
	}
	if d.PipelineParallel < 0 || d.VirtualStages < 0 || d.MicroBatches < 0 {
		return badConfig("pipeline", "negative pipeline knobs pp=%d v=%d m=%d",
			d.PipelineParallel, d.VirtualStages, d.MicroBatches)
	}
	if d.VPP() > 1 && d.PP() < 2 {
		return badConfig("pipeline", "virtual stages (V=%d) require a pipeline (PP=%d)",
			d.VPP(), d.PP())
	}
	if d.VPP() > 1 && d.Micro()%d.PP() != 0 {
		// The interleaved schedule needs the micro count divisible by
		// the stage count — the same shape the runtime engine rejects.
		return badConfig("pipeline", "interleaving needs M=%d divisible by PP=%d", d.Micro(), d.PP())
	}
	if d.DataParallel*d.ExpertParallel*d.PP() != d.Ranks() {
		return badConfig("grid", "DP=%d x EP=%d x PP=%d != %d ranks",
			d.DataParallel, d.ExpertParallel, d.PP(), d.Ranks())
	}
	if d.Efficiency <= 0 || d.Efficiency > 1 {
		return badConfig("efficiency", "%v out of (0,1]", d.Efficiency)
	}
	if d.RecomputeFraction < 0 || d.RecomputeFraction > 1 {
		return badConfig("recompute", "fraction %v out of [0,1]", d.RecomputeFraction)
	}
	if d.WireFP16 && d.Precision == sunway.FP64 {
		return badConfig("wire", "FP16 wire codec under FP64 training would misprice every inter-supernode byte")
	}
	return nil
}

// ValidateFor checks d against a concrete model spec: everything
// Validate covers plus the spec-dependent constraints.
func (d Deployment) ValidateFor(spec ModelSpec) error {
	if err := d.Validate(); err != nil {
		return err
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if spec.MoEEvery > 0 && spec.NumExperts%d.ExpertParallel != 0 {
		return badConfig("expert-parallel",
			"%d experts not divisible by EP=%d", spec.NumExperts, d.ExpertParallel)
	}
	if chunks := d.PP() * d.VPP(); spec.Layers < chunks {
		return badConfig("pipeline", "%d layers cannot fill %d pipeline chunks (PP=%d x V=%d)",
			spec.Layers, chunks, d.PP(), d.VPP())
	}
	return nil
}
