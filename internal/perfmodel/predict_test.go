package perfmodel

import (
	"math"
	"testing"

	"bagualu/internal/parallel/layout"
	"bagualu/internal/simnet/coll"
	"bagualu/internal/sunway"
)

// TestFaultFreePredictionHasUnitGoodput pins PredictStep's fault-free
// step, which the experiment tables project with: no failures and no
// checkpoints, so the effective step is the fault-free one — and so is
// the zero FaultModel's pricing of it.
func TestFaultFreePredictionHasUnitGoodput(t *testing.T) {
	d := validDeployment()
	d.A2A = A2AHierarchical
	d.ZeRO = true
	p, err := d.PredictStep(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	if p.Goodput != 1 || p.EffStepTime != p.StepTime || p.CkptOverhead != 0 {
		t.Fatalf("fault-free prediction has goodput %v, effective step %v of %v, checkpoint overhead %v",
			p.Goodput, p.EffStepTime, p.StepTime, p.CkptOverhead)
	}
	if q := d.Goodput(p, FaultModel{}); q != p {
		t.Fatalf("the zero fault model prices %+v, the walk %+v", q, p)
	}
}

func TestFP16WireCutsA2ABytesAndTime(t *testing.T) {
	// A deployment whose expert-parallel group spans supernodes must
	// get cheaper (and lighter on the wire) with the FP16 codec.
	d := Deployment{
		Machine: sunway.TestMachine(4, 2), RanksPerNode: 1,
		Grid:         layout.Grid{DataParallel: 1, ExpertParallel: 8},
		BatchPerRank: 2, Precision: sunway.FP32, Efficiency: 0.4,
	}
	spec := tinySpec()
	spec.NumExperts = 8
	fp32, err := d.PredictStep(spec)
	if err != nil {
		t.Fatal(err)
	}
	d.WireFP16 = true
	fp16, err := d.PredictStep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fp16.A2ABytes >= fp32.A2ABytes {
		t.Fatalf("fp16 wire bytes %v !< fp32 %v", fp16.A2ABytes, fp32.A2ABytes)
	}
	if fp16.A2A >= fp32.A2A {
		t.Fatalf("fp16 a2a time %v !< fp32 %v", fp16.A2A, fp32.A2A)
	}
	// Intra-supernode-only groups see no codec effect.
	dIntra := d
	dIntra.Machine = sunway.TestMachine(1, 8)
	intra16, err := dIntra.PredictStep(spec)
	if err != nil {
		t.Fatal(err)
	}
	dIntra.WireFP16 = false
	intra32, err := dIntra.PredictStep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if intra16.A2ABytes != intra32.A2ABytes {
		t.Fatalf("codec changed intra-supernode bytes: %v vs %v", intra16.A2ABytes, intra32.A2ABytes)
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
	d := Deployment{
		Machine: sunway.TestMachine(4, 2), RanksPerNode: 2,
		Grid:         layout.Grid{DataParallel: 1, ExpertParallel: 16},
		BatchPerRank: 2, Precision: sunway.FP32, Efficiency: 0.3, A2A: A2AHierarchical,
	}
	spec := tinySpec()
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
	d := Deployment{
		Machine: sunway.TestMachine(4, 2), RanksPerNode: 1,
		Grid:         layout.Grid{DataParallel: 1, ExpertParallel: 8},
		BatchPerRank: 2, Precision: sunway.FP32, Efficiency: 0.4, A2A: A2AHierarchical,
	}
	spec := tinySpec()
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

func TestGoodputHasInteriorOptimumOverInterval(t *testing.T) {
	// Checkpointing too often pays the writer; too rarely pays rework.
	// The classic Young–Daly trade must produce an interior optimum. It
	// sits near sqrt(2·C·MTBF) of wall time for a checkpoint cost C, the
	// snapshot once the flush hides: the grid brackets that interval.
	// Every interval is priced from the one walk, and BestCkptInterval's
	// sweep over powers of two lands within a factor 2 of the grid's best.
	d := fullDeployment(A2AHierarchical)
	spec := BrainScaleSpecs()[0]
	spec.NumExperts = d.ExpertParallel
	const mtbf, long = 400, 1 << 20
	walk, err := d.PredictStep(spec)
	if err != nil {
		t.Fatal(err)
	}
	p := d.Goodput(walk, FaultModel{MTBFSteps: mtbf, CkptEverySteps: long, Async: true})
	opt := max(2, int(math.Round(math.Sqrt(2*p.CkptOverhead*long*mtbf/p.StepTime))))
	intervals := []int{1, opt, 16 * opt, 256 * opt}
	good := make([]float64, len(intervals))
	for i, iv := range intervals {
		p := d.Goodput(walk, FaultModel{MTBFSteps: mtbf, CkptEverySteps: iv, Async: true})
		if p.Goodput <= 0 || p.Goodput >= 1 {
			t.Fatalf("interval %d: goodput %v out of (0,1)", iv, p.Goodput)
		}
		if p.EffStepTime <= p.StepTime {
			t.Fatalf("interval %d: effective step %v !> fault-free %v", iv, p.EffStepTime, p.StepTime)
		}
		good[i] = p.Goodput
	}
	best := 0
	for i, g := range good {
		if g > good[best] {
			best = i
		}
	}
	if best == 0 || best == len(good)-1 {
		t.Fatalf("goodput monotone over intervals %v: %v — no interior optimum", intervals, good)
	}
	every, swept := d.BestCkptInterval(walk, mtbf)
	if every < intervals[best]/2 || every > 2*intervals[best] {
		t.Fatalf("sweep picked interval %d (goodput %v); the grid's best is %d (goodput %v)", every, swept.Goodput, intervals[best], good[best])
	}
}

func TestGoodputDegradesWithShorterMTBF(t *testing.T) {
	d := fullDeployment(A2AHierarchical)
	spec := BrainScaleSpecs()[0]
	spec.NumExperts = d.ExpertParallel
	walk, err := d.PredictStep(spec)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = -1
	for _, mtbf := range []float64{50, 500, 5000} {
		p := d.Goodput(walk, FaultModel{MTBFSteps: mtbf, CkptEverySteps: 64, Async: true})
		if p.Goodput <= prev {
			t.Fatalf("goodput %v not increasing with MTBF %v", p.Goodput, mtbf)
		}
		prev = p.Goodput
	}
}

func TestSyncBytesMatchRingFormula(t *testing.T) {
	d := validDeployment()
	spec := tinySpec()
	p, err := d.PredictStep(spec)
	if err != nil {
		t.Fatal(err)
	}
	ranks := d.Ranks()
	want := 2 * float64(ranks-1) / float64(ranks) * float64(spec.DenseParams()) * 4
	want += 2 * float64(d.DataParallel-1) / float64(d.DataParallel) *
		float64(spec.ExpertParamsTotal()/int64(d.ExpertParallel)) * 4
	// The walk rounds each group's elements up to a multiple of its
	// size, fewer than p more elements making 2(p-1)/p passes: under
	// 2(p-1) elements' bytes a group. Its groups hold every parameter
	// once.
	var slack, n float64
	for _, g := range d.walk(spec).ranks[0].groups {
		slack += 2 * float64(g.c.size-1) * 4
		n += g.n
	}
	if n != float64(spec.DenseParams()+spec.ExpertParamsTotal()/int64(d.ExpertParallel)) {
		t.Fatalf("the walk's groups hold %v elements, want %v", n, spec.DenseParams()+spec.ExpertParamsTotal()/int64(d.ExpertParallel))
	}
	if p.SyncBytes < want*(1-1e-6) || p.SyncBytes > want*(1+1e-6)+slack {
		t.Fatalf("sync bytes %v, want %v plus at most %v", p.SyncBytes, want, slack)
	}
}

// serialSync prices each gradient group of stage 0's representative
// alone, on idle ports from time 0, and sums them: the sync as it would
// show if no group overlapped another or the backward.
func serialSync(d Deployment, spec ModelSpec) float64 {
	w := d.walk(spec)
	var sum float64
	for _, g := range w.ranks[0].groups {
		if g.c.size > 1 {
			sum += isolated(w, g.c, g.n)
		}
	}
	return sum
}

// isolated prices the all-reduce of n gradient elements over c alone,
// on idle ports from time 0.
func isolated(w *walker, c *comm, n float64) float64 {
	end := w.alike(&rank{floor: math.Inf(1)}, c, coll.RingAllReduce, load{n: n, width: w.gradWire()}, 0, math.Inf(1), true).now
	return end
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
	w2 := ModelSpec{
		Name: "w2", Vocab: 256, Dim: 128, Heads: 4, Layers: 2, SeqLen: 32,
		FFNHidden: 256, NumExperts: 16, MoEHidden: 256, MoEEvery: 1, TopK: 2,
	}
	search := ModelSpec{
		Name: "search", Vocab: 128, Dim: 32, Heads: 2, Layers: 2, SeqLen: 16,
		FFNHidden: 64, NumExperts: 8, MoEHidden: 64, MoEEvery: 1, TopK: 2,
	}
	for _, spec := range []ModelSpec{w2, search} {
		d := Deployment{
			Machine: sunway.TestMachine(4, 1), RanksPerNode: 2,
			Grid:         layout.Grid{DataParallel: 2, ExpertParallel: 4},
			BatchPerRank: 4, Precision: sunway.Mixed, Efficiency: 0.3, A2A: A2AHierarchical,
		}
		check := func(grid string) StepPrediction {
			t.Helper()
			name := spec.Name + " " + grid
			if spec.Name == "search" {
				return tracks(t, name, d, spec)
			}
			var p StepPrediction
			var gap [2]float64
			for i, a := range []A2AStrategy{A2AFlat, A2AHierarchical} {
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
		if serial := serialSync(d, spec); !(0 < p.Sync && p.Sync < serial) {
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
	spec := ModelSpec{
		Name: "w4", Vocab: 256, Dim: 64, Heads: 4, Layers: 2, SeqLen: 32,
		FFNHidden: 128, NumExperts: 4, MoEHidden: 128, MoEEvery: 1, TopK: 2,
	}
	d := Deployment{
		Machine: sunway.TestMachine(2, 2), RanksPerNode: 2,
		Grid:         layout.Grid{DataParallel: 8, ExpertParallel: 1},
		BatchPerRank: 4, Precision: sunway.FP32, Efficiency: 0.3, A2A: A2AHierarchical,
	}
	w := d.walk(spec)
	r := w.ranks[0]
	lastGroup := r.groups[len(r.groups)-2] // block 0's dense part and the embeddings, then its experts
	last := isolated(w, r.stage, lastGroup.n)
	whole := serialSync(d, spec)
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
