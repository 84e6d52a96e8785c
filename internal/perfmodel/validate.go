package perfmodel

// Layout validation: a deployment the runtime would refuse
// (parallel.NewEngine) is refused here with a typed *ConfigError naming
// the knob, so the autotuner never ranks what the machine cannot run.

import (
	"errors"
	"fmt"

	"bagualu/internal/parallel/layout"
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
	if d.MicroBatches < 0 {
		return badConfig("pipeline", "negative micro-batch count %d", d.MicroBatches)
	}
	if err := d.checkGrid(0); err != nil {
		return err
	}
	if d.Efficiency <= 0 || d.Efficiency > 1 {
		return badConfig("efficiency", "%v out of (0,1]", d.Efficiency)
	}
	if d.RecomputeEvery < 0 {
		return badConfig("recompute", "negative recompute interval %d", d.RecomputeEvery)
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
	if spec.MoEEvery > 0 {
		if err := d.checkGrid(spec.NumExperts); err != nil {
			return err
		}
	}
	if chunks := d.PP() * d.VPP(); spec.Layers < chunks {
		return badConfig("pipeline", "%d layers cannot fill %d pipeline chunks (PP=%d x V=%d)",
			spec.Layers, chunks, d.PP(), d.VPP())
	}
	return nil
}

// checkGrid runs the engine's grid check, layout.Grid.Check, on this
// deployment's ranks and micro-batch count, and names the rejection's
// field by the axis at fault.
func (d Deployment) checkGrid(experts int) error {
	err := d.Check(d.Ranks(), experts, d.Micro())
	if err == nil {
		return nil
	}
	field := "grid"
	var at interface{ Axis() string }
	if errors.As(err, &at) {
		switch at.Axis() {
		case layout.AxisPipe:
			field = "pipeline"
		case layout.AxisExpert:
			field = "expert-parallel"
		}
	}
	return badConfig(field, "%v", err)
}
