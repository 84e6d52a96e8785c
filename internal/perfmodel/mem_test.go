package perfmodel

import (
	"testing"

	"bagualu/internal/parallel/layout"
	"bagualu/internal/sunway"
)

// memDeployment is a single-node-scale deployment for capacity tests.
func memDeployment() Deployment {
	m := sunway.TestMachine(1, 4)
	return Deployment{
		Machine: m, RanksPerNode: 1, Grid: layout.Grid{DataParallel: 4, ExpertParallel: 1},
		BatchPerRank: 4, Precision: sunway.Mixed, Efficiency: 0.35,
		A2A: A2AHierarchical,
	}
}

func memSpec() ModelSpec {
	return ModelSpec{
		Name: "mem", Vocab: 50304, Dim: 1024, Heads: 16, Layers: 24,
		SeqLen: 1024, FFNHidden: 4096,
	}
}

func TestMemoryBreakdownConsistent(t *testing.T) {
	d := memDeployment()
	mb, err := d.Memory(memSpec())
	if err != nil {
		t.Fatal(err)
	}
	if mb.Params <= 0 || mb.OptState <= 0 || mb.Activations <= 0 {
		t.Fatalf("degenerate breakdown %+v", mb)
	}
	if got := mb.Params + mb.OptState + mb.Activations; got != mb.TotalGiB {
		t.Fatalf("total %v != sum of parts %v", mb.TotalGiB, got)
	}
	if mb.HostOptState != 0 {
		t.Fatalf("host tier populated without offload: %+v", mb)
	}
	// PredictStep must agree with the standalone breakdown.
	rep, err := d.PredictStep(memSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mem != mb {
		t.Fatalf("PredictStep memory %v disagrees with Memory() %v", rep.Mem, mb)
	}
}

// The PR's acceptance bound: ZeRO must at least double the maximum
// trainable parameters per node. Analytically, Mixed precision spends
// 14 bytes/param of which 12 are optimizer state; sharding those over
// P ≥ 4 ranks leaves < 7 bytes/param, i.e. > 2x capacity.
func TestZeROAtLeastDoublesMaxParams(t *testing.T) {
	d := memDeployment()
	spec := memSpec()
	base, _, err := d.MaxTrainableParams(spec)
	if err != nil {
		t.Fatal(err)
	}
	dz := d
	dz.ZeRO = true
	zero, _, err := dz.MaxTrainableParams(spec)
	if err != nil {
		t.Fatal(err)
	}
	if float64(zero) < 2*float64(base) {
		t.Fatalf("ZeRO max params %d < 2x baseline %d", zero, base)
	}
}

// Each lever must push the wall monotonically further: baseline <
// +ZeRO < +recompute < +offload.
func TestMemoryLeversMonotone(t *testing.T) {
	d := memDeployment()
	spec := memSpec()
	caps := make([]int64, 4)
	for i, cfg := range []func(*Deployment){
		func(*Deployment) {},
		func(d *Deployment) { d.ZeRO = true },
		func(d *Deployment) { d.ZeRO = true; d.RecomputeEvery = 1 },
		func(d *Deployment) { d.ZeRO = true; d.RecomputeEvery = 1; d.OffloadOptState = true },
	} {
		dd := d
		cfg(&dd)
		n, _, err := dd.MaxTrainableParams(spec)
		if err != nil {
			t.Fatal(err)
		}
		caps[i] = n
	}
	for i := 1; i < len(caps); i++ {
		if caps[i] <= caps[i-1] {
			t.Fatalf("lever %d did not increase capacity: %v", i, caps)
		}
	}
}

// Recomputation shrinks activations and costs forward-replay time;
// offload frees device memory and costs host-bandwidth time. Both
// trades must show up in the projection.
func TestRecomputeAndOffloadTrades(t *testing.T) {
	d := memDeployment()
	spec := memSpec()
	plain, err := d.PredictStep(spec)
	if err != nil {
		t.Fatal(err)
	}
	dr := d
	dr.RecomputeEvery = 1
	rec, err := dr.PredictStep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Mem.Activations >= plain.Mem.Activations {
		t.Fatalf("recompute did not shrink activations: %v vs %v", rec.Mem.Activations, plain.Mem.Activations)
	}
	if rec.Recompute <= 0 || rec.StepTime <= plain.StepTime {
		t.Fatalf("recompute time not priced: %+v", rec)
	}
	do := d
	do.OffloadOptState = true
	off, err := do.PredictStep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if off.Mem.OptState != 0 || off.Mem.HostOptState != plain.Mem.OptState {
		t.Fatalf("offload did not move state to host: %+v", off.Mem)
	}
	if off.Offload <= 0 || off.StepTime <= plain.StepTime {
		t.Fatalf("offload traffic not priced: %+v", off)
	}
}

// The host tier has finite capacity too: a model whose offloaded
// state exceeds HostMemGiB must not report as fitting.
func TestOffloadBoundedByHostCapacity(t *testing.T) {
	d := memDeployment()
	d.OffloadOptState = true
	d.Machine.HostMemGiB = 0.001
	spec := memSpec()
	mb, err := d.Memory(spec)
	if err != nil {
		t.Fatal(err)
	}
	if mb.Fits {
		t.Fatalf("offloaded state %v GiB fits a %v GiB host tier", mb.HostOptState, d.Machine.HostMemGiB)
	}
}

func TestMaxTrainableParamsRespectsFits(t *testing.T) {
	d := memDeployment()
	spec := memSpec()
	n, best, err := d.MaxTrainableParams(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 || best.TotalParams() != n {
		t.Fatalf("bad capacity result: n=%d spec=%+v", n, best)
	}
	mb, err := d.Memory(best)
	if err != nil {
		t.Fatal(err)
	}
	if !mb.Fits {
		t.Fatalf("reported max does not fit: %+v", mb)
	}
}
