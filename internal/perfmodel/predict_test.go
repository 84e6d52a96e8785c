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
