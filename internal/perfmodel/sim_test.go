package perfmodel_test

// The step walk checked against the simulator it mirrors: each test
// prices a deployment and runs the same deployment through
// autotune.ShortRun, the engine on the virtual clock.

import (
	"fmt"
	"math"
	"testing"

	"bagualu/internal/autotune"
	"bagualu/internal/parallel/layout"
	"bagualu/internal/perfmodel"
	"bagualu/internal/sunway"
)

// shortRun runs spec under d through autotune.ShortRun: three measured
// steps after one warmup step, seed 42.
func shortRun(t *testing.T, d perfmodel.Deployment, spec perfmodel.ModelSpec) autotune.ShortRunResult {
	t.Helper()
	res, err := autotune.ShortRun(d, spec, 3, 1, 42)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// measure is shortRun's virtual seconds per step.
func measure(t *testing.T, d perfmodel.Deployment, spec perfmodel.ModelSpec) float64 {
	t.Helper()
	return shortRun(t, d, spec).SimPerStep
}

// tracks predicts spec under d and fails unless the step is within 15 %
// of the simulator's.
func tracks(t *testing.T, name string, d perfmodel.Deployment, spec perfmodel.ModelSpec) perfmodel.StepPrediction {
	t.Helper()
	p, err := d.PredictStep(spec)
	if err != nil {
		t.Fatal(err)
	}
	meas := measure(t, d, spec)
	t.Logf("%s: predicted %.4g s, measured %.4g s", name, p.StepTime, meas)
	if e := math.Abs(p.StepTime-meas) / meas; e > 0.15 {
		t.Errorf("%s: predicted step %.4g s is %.1f%% off the measured %.4g s", name, p.StepTime, 100*e, meas)
	}
	return p
}

// TestA2AStrategiesTrackSimulator: the walk runs both exchanges as mpi
// does — the direct one posts every peer's chunk eagerly, the
// hierarchical one forwards cross-supernode rows by rail (mpi.Exchange)
// — and on an expert group spanning two and four supernodes each step is
// the simulator's, in the simulator's order. At 96,000 nodes every rank
// of the rail exchange crosses with the direct exchange's bytes, after
// a first hop inside its supernode, while the direct exchange's eager
// sends overlap their latencies (the simulator charges no per-message
// gap): the hierarchical exchange is the slower one there, by its first
// hop, less than a quarter. A two-rank group across two supernodes runs
// the exchange the walk prices, to the rounding.
func TestA2AStrategiesTrackSimulator(t *testing.T) {
	spec := perfmodel.TinySpec()
	for _, m := range []*sunway.Machine{sunway.TestMachine(2, 2), sunway.TestMachine(4, 1)} {
		d := perfmodel.Deployment{
			Machine: m, RanksPerNode: 2, Grid: layout.Grid{DataParallel: 1, ExpertParallel: 8},
			BatchPerRank: 2, Precision: sunway.FP32, Efficiency: 0.3,
		}
		spec.NumExperts = 8
		flat := tracks(t, fmt.Sprintf("%d supernodes, direct", m.Supernodes), d, spec)
		d.A2A = perfmodel.A2AHierarchical
		hier := tracks(t, fmt.Sprintf("%d supernodes, hierarchical", m.Supernodes), d, spec)
		hierMeas := measure(t, d, spec)
		d.A2A = perfmodel.A2AFlat
		if (hier.StepTime < flat.StepTime) != (hierMeas < measure(t, d, spec)) {
			t.Errorf("%d supernodes: the walk orders the exchanges against the simulator", m.Supernodes)
		}
	}
	// Two ranks in two supernodes: the hierarchical exchange takes the
	// rail list (coll.Geometry.Exchange), though mpi's own topology rule
	// (Comm.Hierarchical) would want four ranks. With two experts and
	// top-2 every token visits both ranks, so the routing is balanced,
	// and the run executes the exchange the walk prices: each step is
	// its price.
	d := perfmodel.Deployment{
		Machine: sunway.TestMachine(2, 1), RanksPerNode: 1, Grid: layout.Grid{DataParallel: 1, ExpertParallel: 2},
		BatchPerRank: 2, Precision: sunway.FP32, Efficiency: 0.3,
	}
	spec = perfmodel.TinySpec()
	spec.NumExperts = 2
	for _, a := range []perfmodel.A2AStrategy{perfmodel.A2AFlat, perfmodel.A2AHierarchical} {
		d.A2A = a
		p, err := d.PredictStep(spec)
		if err != nil {
			t.Fatal(err)
		}
		meas := measure(t, d, spec)
		t.Logf("dp1xep2 over 2 supernodes, %v: predicted %.9g s, measured %.9g s", a, p.StepTime, meas)
		if math.Abs(p.StepTime-meas) > 1e-9*meas {
			t.Errorf("dp1xep2 over 2 supernodes, %v: predicted step %.9g s, measured %.9g s", a, p.StepTime, meas)
		}
	}
	spec = perfmodel.BrainScaleSpecs()[0]
	dFlat, dHier := perfmodel.FullDeployment(perfmodel.A2AFlat), perfmodel.FullDeployment(perfmodel.A2AHierarchical)
	spec.NumExperts = dFlat.ExpertParallel
	rf, err := dFlat.PredictStep(spec)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := dHier.PredictStep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rh.A2A <= rf.A2A || rh.A2A > 1.25*rf.A2A {
		t.Fatalf("at full scale the rail exchange %.3g s is not within (1, 1.25]× the direct one's %.3g s", rh.A2A, rf.A2A)
	}
}

// idle is the share of stage 0's step it spends neither computing, nor
// in MoE exchanges, nor waiting for the gradient sync: at S > 1 its
// waits on boundary receives (the bubble), and the scalar gathers.
func idle(p perfmodel.StepPrediction) float64 {
	busy := p.DenseCompute + p.ExpertCompute + p.Recompute + p.A2A + p.Sync + p.Offload
	return (p.StepTime - busy) / p.StepTime
}

// TestBubbleShrinksWithMicroBatches: the walk's pipeline bubble — the
// time stage 0 waits on boundary receives, most of its idle share — is
// the schedule's fill and drain. More micro-batches amortize it over a
// longer step, interleaving shortens it, and a deeper pipeline idles a
// larger share of its step, and each of these steps is the simulator's.
func TestBubbleShrinksWithMicroBatches(t *testing.T) {
	spec := perfmodel.PPSpec()
	at := func(s, v, m int) perfmodel.StepPrediction {
		return tracks(t, fmt.Sprintf("pp%dv%dm%d", s, v, m), perfmodel.PPDeployment(s, v, m), spec)
	}
	flat := idle(tracks(t, "flat", perfmodel.ValidDeployment(), spec))
	p2, p8 := idle(at(2, 1, 2)), idle(at(2, 1, 8))
	if p2 <= 2*flat {
		t.Fatalf("pipelined deployment idles %v of its step, the flat one %v", p2, flat)
	}
	if p8 >= p2 {
		t.Fatalf("bubble share did not shrink with micro-batches: M=2 %v vs M=8 %v", p2, p8)
	}
	if pv := idle(at(2, 2, 8)); pv >= p8 {
		t.Fatalf("interleaving did not shrink the bubble share: %v vs %v", pv, p8)
	}
	if p4 := idle(at(4, 1, 4)); p4 <= p2 {
		t.Fatalf("bubble share not increasing with depth: S=2 %v, S=4 %v", p2, p4)
	}
}

// TestPPSendScalesWithMicroBatches: every micro-batch crosses each of
// the V·S-1 chunk boundaries forward and back, so the walk books
// 2·M·(V·S-1) boundary sends a step, and the steps they cost are the
// simulator's.
func TestPPSendScalesWithMicroBatches(t *testing.T) {
	spec := perfmodel.PPSpec()
	for _, c := range []struct{ s, v, m int }{{2, 1, 2}, {2, 1, 4}, {2, 2, 4}} {
		d := perfmodel.PPDeployment(c.s, c.v, c.m)
		if got, want := perfmodel.BoundarySends(d, spec), 2*c.m*(c.v*c.s-1); got != want {
			t.Fatalf("pp%dv%dm%d: %d boundary sends, want %d", c.s, c.v, c.m, got, want)
		}
		tracks(t, fmt.Sprintf("pp%dv%dm%d", c.s, c.v, c.m), d, spec)
	}
}

// TestHierA2AStagesAtCodecWidth: under the FP16 codec an element bound
// for another supernode is 2 bytes on every leg of the hierarchical
// exchange, so the codec saves exactly 2 bytes per crossing element on
// each leg it travels in each of the step's four exchanges per MoE layer
// — its first hop, unless its source is its rail, and the rail message
// — nothing on traffic that stays in a supernode, and the step it saves
// is the simulator's: both steps track the measurement.
func TestHierA2AStagesAtCodecWidth(t *testing.T) {
	d := perfmodel.Deployment{
		Machine: sunway.TestMachine(4, 2), RanksPerNode: 2,
		Grid:         layout.Grid{DataParallel: 1, ExpertParallel: 16},
		BatchPerRank: 2, Precision: sunway.FP32, Efficiency: 0.3, A2A: perfmodel.A2AHierarchical,
	}
	spec := perfmodel.TinySpec()
	spec.NumExperts = 16
	full := tracks(t, "fp32 wire", d, spec)
	d.WireFP16 = true
	half := tracks(t, "fp16 wire", d, spec)
	// 12 of the 16 ranks sit in other supernodes, 3 on each rail: a rank
	// sends the 3 other members of its supernode the rows riding their
	// rails, then 4 sources' rows to each of its own 3.
	rows := float64(d.BatchPerRank*spec.SeqLen*spec.TopK) / 16
	saved := float64(4*spec.MoELayers()) * (3*3 + 3*4) * rows * float64(spec.Dim) * 2
	if got := full.A2ABytes - half.A2ABytes; math.Abs(got-saved) > 1e-9*saved {
		t.Fatalf("codec saves %v wire bytes per rank, want %v", got, saved)
	}
	if half.StepTime >= full.StepTime {
		t.Fatalf("codec step %v !< fp32 step %v", half.StepTime, full.StepTime)
	}
}

// TestOverlapA2AHidesExpertCompute: the two-phase exchange runs the
// local leg's expert GEMMs while the cross-supernode leg is in flight, so
// an expert group spanning supernodes steps faster with it, as the
// simulator measures; one inside a supernode has no such leg, and the
// walk prices it the same either way.
func TestOverlapA2AHidesExpertCompute(t *testing.T) {
	d := perfmodel.Deployment{
		Machine: sunway.TestMachine(4, 2), RanksPerNode: 1,
		Grid:         layout.Grid{DataParallel: 1, ExpertParallel: 8},
		BatchPerRank: 2, Precision: sunway.FP32, Efficiency: 0.4, A2A: perfmodel.A2AHierarchical,
	}
	spec := perfmodel.TinySpec()
	spec.NumExperts = 8
	blocking := tracks(t, "blocking", d, spec)
	d.OverlapA2A = true
	overlap := tracks(t, "overlap", d, spec)
	if overlap.StepTime >= blocking.StepTime {
		t.Fatalf("overlap step %v !< blocking %v", overlap.StepTime, blocking.StepTime)
	}
	d.Machine = sunway.TestMachine(1, 8)
	intra, err := d.PredictStep(spec)
	if err != nil {
		t.Fatal(err)
	}
	d.OverlapA2A = false
	intraBlocking, err := d.PredictStep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if intra.StepTime != intraBlocking.StepTime {
		t.Fatalf("inside one supernode overlap steps %v, blocking %v", intra.StepTime, intraBlocking.StepTime)
	}
}

// TestSyncPricesDenseAndExpertConcurrently: on W2's machine and grid
// (dp2×ep4 over four supernodes of one two-rank node, Mixed precision)
// the engine issues each block's dense and expert groups under the
// backward, and their hops share the rank's ports with each other and
// with the exchanges. What shows after the backward is less than the
// groups' collectives priced one after another. With one data-parallel
// replica there is no expert sync: the sync bytes are the dense ring's.
// On the autotuner's search spec the step is the simulator's within
// 15 %. On W2's own, wider spec an untrained gate sends one rank up to
// 2.5× the mean rows. Priced with balanced routing the walk reads the
// step 17–32 % under the simulator, in both exchanges and within 3
// points of each other: the gap is the routing's, not the exchange's.
// Priced with the run's measured RouteSkew (1.58 on dp2×ep4, 2.35 on
// dp1×ep8) the walk waits for the busiest rank as every rank does, and
// each step is the simulator's within 15 %.
func TestSyncPricesDenseAndExpertConcurrently(t *testing.T) {
	w2 := perfmodel.ModelSpec{
		Name: "w2", Vocab: 256, Dim: 128, Heads: 4, Layers: 2, SeqLen: 32,
		FFNHidden: 256, NumExperts: 16, MoEHidden: 256, MoEEvery: 1, TopK: 2,
	}
	search := perfmodel.ModelSpec{
		Name: "search", Vocab: 128, Dim: 32, Heads: 2, Layers: 2, SeqLen: 16,
		FFNHidden: 64, NumExperts: 8, MoEHidden: 64, MoEEvery: 1, TopK: 2,
	}
	for _, spec := range []perfmodel.ModelSpec{w2, search} {
		d := perfmodel.Deployment{
			Machine: sunway.TestMachine(4, 1), RanksPerNode: 2,
			Grid:         layout.Grid{DataParallel: 2, ExpertParallel: 4},
			BatchPerRank: 4, Precision: sunway.Mixed, Efficiency: 0.3, A2A: perfmodel.A2AHierarchical,
		}
		check := func(grid string) perfmodel.StepPrediction {
			t.Helper()
			name := spec.Name + " " + grid
			if spec.Name == "search" {
				return tracks(t, name, d, spec)
			}
			var p perfmodel.StepPrediction
			var gap [2]float64
			for i, a := range []perfmodel.A2AStrategy{perfmodel.A2AFlat, perfmodel.A2AHierarchical} {
				da := d
				da.A2A = a
				res := shortRun(t, da, spec)
				meas := res.SimPerStep
				bal, err := da.PredictStep(spec)
				if err != nil {
					t.Fatal(err)
				}
				gap[i] = (bal.StepTime - meas) / meas
				da.RouteSkew = res.RouteSkew
				if p, err = da.PredictStep(spec); err != nil {
					t.Fatal(err)
				}
				e := (p.StepTime - meas) / meas
				t.Logf("%s %v: measured %.4g s; balanced %.4g s (%+.1f%%); at skew %.3g %.4g s (%+.1f%%)",
					name, a, meas, bal.StepTime, 100*gap[i], res.RouteSkew, p.StepTime, 100*e)
				if gap[i] > 0 {
					t.Errorf("%s %v: priced with balanced routing the step %.4g s is over the measured %.4g s", name, a, bal.StepTime, meas)
				}
				if math.Abs(e) > 0.15 {
					t.Errorf("%s %v: priced at the measured skew %.3g the step %.4g s is %+.1f%% off the measured %.4g s", name, a, res.RouteSkew, p.StepTime, 100*e, meas)
				}
			}
			if math.Abs(gap[1]-gap[0]) > 0.03 {
				t.Errorf("%s: the hierarchical walk's routing gap %+.1f%% is not the direct one's %+.1f%%", name, 100*gap[1], 100*gap[0])
			}
			return p
		}
		p := check("dp2×ep4")
		if serial := perfmodel.SerialSync(d, spec); !(0 < p.Sync && p.Sync < serial) {
			t.Fatalf("%s dp2×ep4: visible sync %v outside (0, the serial %v)", spec.Name, p.Sync, serial)
		}
		d.DataParallel, d.ExpertParallel, d.Precision = 1, 8, sunway.FP32
		p = check("dp1×ep8")
		want := 2 * 7.0 / 8 * float64(spec.DenseParams()) * 4
		if math.Abs(p.SyncBytes-want) > 1e-9*want {
			t.Fatalf("%s dp1×ep8 sync bytes %v, want the dense ring's %v", spec.Name, p.SyncBytes, want)
		}
	}
}

// TestVisibleSyncIsBucketedOverlap: on W4's shape (dp8 over two
// supernodes of two two-rank nodes) the gradient groups leave as the
// backward finishes their units, so the sync that shows after it is less
// than the whole and never less than the last group's own collective —
// block 0's dense part with the embeddings, issued as the backward ends
// — and the step is the simulator's. With compute slow enough to hide
// every other group, that collective alone is what shows.
func TestVisibleSyncIsBucketedOverlap(t *testing.T) {
	spec := perfmodel.ModelSpec{
		Name: "w4", Vocab: 256, Dim: 64, Heads: 4, Layers: 2, SeqLen: 32,
		FFNHidden: 128, NumExperts: 4, MoEHidden: 128, MoEEvery: 1, TopK: 2,
	}
	d := perfmodel.Deployment{
		Machine: sunway.TestMachine(2, 2), RanksPerNode: 2,
		Grid:         layout.Grid{DataParallel: 8, ExpertParallel: 1},
		BatchPerRank: 4, Precision: sunway.FP32, Efficiency: 0.3, A2A: perfmodel.A2AHierarchical,
	}
	last := perfmodel.LastGroupSync(d, spec)
	whole := perfmodel.SerialSync(d, spec)
	p := tracks(t, "dp8", d, spec)
	t.Logf("sync %v, visible %v, last group %v", whole, p.Sync, last)
	if !(last <= p.Sync && p.Sync < whole) {
		t.Fatalf("visible sync %v outside [last group %v, whole sync %v)", p.Sync, last, whole)
	}
	d.Efficiency = 1e-4
	p, err := d.PredictStep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Sync-last) > 1e-9*last {
		t.Fatalf("under a long backward the visible sync is %v, want the last group's %v", p.Sync, last)
	}
}
