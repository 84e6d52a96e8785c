package perfmodel

import (
	"errors"
	"testing"

	"bagualu/internal/parallel/layout"
	"bagualu/internal/sunway"
)

func validDeployment() Deployment {
	return Deployment{
		Machine: sunway.TestMachine(2, 8), RanksPerNode: 1,
		Grid:         layout.Grid{DataParallel: 4, ExpertParallel: 4},
		BatchPerRank: 2, Precision: sunway.FP32, Efficiency: 0.4,
	}
}

// wantConfigError asserts err is a *ConfigError naming field.
func wantConfigError(t *testing.T, err error, field string) {
	t.Helper()
	if err == nil {
		t.Fatalf("inconsistent config accepted (wanted %q rejection)", field)
	}
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a *ConfigError", err)
	}
	if ce.Field != field {
		t.Fatalf("rejection field %q, want %q (%v)", ce.Field, field, err)
	}
}

func TestValidateRejectsGridMismatch(t *testing.T) {
	d := validDeployment()
	d.DataParallel = 7
	wantConfigError(t, d.Validate(), "grid")
	// Widths below one are rejected even when their product covers the
	// ranks: a -2 x -4 grid on 8 ranks once priced its all-to-all at 0.
	for _, g := range []layout.Grid{{DataParallel: -2, ExpertParallel: -4}, {}} {
		d := Deployment{
			Machine: sunway.TestMachine(2, 2), RanksPerNode: 2, Grid: g,
			BatchPerRank: 2, Precision: sunway.FP32, Efficiency: 0.4,
		}
		wantConfigError(t, d.Validate(), "grid")
		if _, err := d.PredictStep(tinySpec()); err == nil {
			t.Fatalf("PredictStep priced grid %+v", g)
		}
	}
}

func TestValidateRejectsNonPositiveDeployment(t *testing.T) {
	d := validDeployment()
	d.BatchPerRank = 0
	wantConfigError(t, d.Validate(), "deployment")
}

func TestValidateRejectsEfficiencyOutOfRange(t *testing.T) {
	d := validDeployment()
	d.Efficiency = 1.5
	wantConfigError(t, d.Validate(), "efficiency")
}

func TestValidateRejectsNegativeRecomputeEvery(t *testing.T) {
	d := validDeployment()
	d.RecomputeEvery = -1
	wantConfigError(t, d.Validate(), "recompute")
}

func TestValidateRejectsFP16WireUnderFP64(t *testing.T) {
	d := validDeployment()
	d.WireFP16 = true
	d.Precision = sunway.FP64
	wantConfigError(t, d.Validate(), "wire")
}

func TestValidateForRejectsIndivisibleExperts(t *testing.T) {
	d := validDeployment()
	spec := tinySpec()
	spec.NumExperts = 7 // EP = 4 does not divide 7
	wantConfigError(t, d.ValidateFor(spec), "expert-parallel")
	// The same rejection must surface through every pricing entry
	// point, not just the validator.
	if _, err := d.Memory(spec); err == nil {
		t.Fatal("Memory accepted an indivisible expert layout")
	}
	if _, err := d.PredictStep(spec); err == nil {
		t.Fatal("PredictStep accepted an indivisible expert layout")
	}
}
