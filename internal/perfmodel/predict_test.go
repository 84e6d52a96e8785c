package perfmodel

import (
	"math"
	"testing"

	"bagualu/internal/parallel/layout"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
)

// TestFaultFreePredictionHasUnitGoodput pins the zero FaultModel the
// experiment tables project with: no failures and no checkpoints, so
// the effective step is the fault-free one.
func TestFaultFreePredictionHasUnitGoodput(t *testing.T) {
	d := validDeployment()
	d.A2A = A2AHierarchical
	d.ZeRO = true
	p, err := d.PredictStep(tinySpec(), FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Goodput != 1 || p.EffStepTime != p.StepTime || p.CkptOverhead != 0 {
		t.Fatalf("fault-free prediction has goodput %v, effective step %v of %v, checkpoint overhead %v",
			p.Goodput, p.EffStepTime, p.StepTime, p.CkptOverhead)
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
	fp32, err := d.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	d.WireFP16 = true
	fp16, err := d.PredictStep(spec, FaultModel{})
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
	intra16, err := dIntra.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	dIntra.WireFP16 = false
	intra32, err := dIntra.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	if intra16.A2ABytes != intra32.A2ABytes {
		t.Fatalf("codec changed intra-supernode bytes: %v vs %v", intra16.A2ABytes, intra32.A2ABytes)
	}
}

// TestHierA2AStagesAtCodecWidth pins the hierarchical exchange's price
// for an FP32 deployment with the FP16 codec: an element bound for
// another supernode is 2 bytes on every leg, so against the same
// exchange at 4 bytes the codec saves exactly those bytes on the node
// gather and scatter, on the supernode staging both ways, and on the
// bisection crossing — and nothing on traffic that stays in a
// supernode.
func TestHierA2AStagesAtCodecWidth(t *testing.T) {
	d := Deployment{
		Machine: sunway.TestMachine(4, 2), RanksPerNode: 2,
		Grid:      layout.Grid{DataParallel: 1, ExpertParallel: 16},
		Precision: sunway.FP32, A2A: A2AHierarchical, WireFP16: true,
	}
	topo := simnet.New(d.Machine, d.RanksPerNode)
	const p, perPeer = 16, 4096.0 // 1 node peer, 2 supernode peers, 12 remote
	intra := (p - 1) * perPeer
	full, fullBytes := d.a2aCost(topo, p, 1, intra, intra)
	half, halfBytes := d.a2aCost(topo, p, 1, intra, intra/2)
	saved := 12 * perPeer / 2
	want := saved * (2*topo.Beta[simnet.NodeLevel] + 2*topo.Beta[simnet.SupernodeLevel] +
		topo.Beta[simnet.MachineLevel]*d.Machine.BisectionOversub)
	if got := full - half; math.Abs(got-want) > 1e-12*full {
		t.Fatalf("codec saves %.9g s on the hierarchical exchange, want %.9g (%.0f bytes on each of five legs)", got, want, saved)
	}
	if fullBytes-halfBytes != saved {
		t.Fatalf("codec saves %v wire bytes per rank, want %v", fullBytes-halfBytes, saved)
	}
}

func TestOverlapA2AHidesExpertCompute(t *testing.T) {
	d := Deployment{
		Machine: sunway.TestMachine(4, 2), RanksPerNode: 1,
		Grid:         layout.Grid{DataParallel: 1, ExpertParallel: 8},
		BatchPerRank: 2, Precision: sunway.FP32, Efficiency: 0.4,
	}
	spec := tinySpec()
	spec.NumExperts = 8
	blocking, err := d.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	d.OverlapA2A = true
	overlap, err := d.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	if overlap.StepTime >= blocking.StepTime {
		t.Fatalf("overlap step %v !< blocking %v", overlap.StepTime, blocking.StepTime)
	}
	if want := math.Max(overlap.A2A, overlap.ExpertCompute); overlap.MoEPhase != want {
		t.Fatalf("overlap MoE phase %v != max(a2a, expert) %v", overlap.MoEPhase, want)
	}
	if want := blocking.A2A + blocking.ExpertCompute; blocking.MoEPhase != want {
		t.Fatalf("blocking MoE phase %v != a2a+expert %v", blocking.MoEPhase, want)
	}
	// An expert group inside one supernode has no cross-supernode leg
	// for expert compute to run under: overlap prices nothing.
	d.Machine = sunway.TestMachine(1, 8)
	intra, err := d.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	if want := intra.A2A + intra.ExpertCompute; intra.MoEPhase != want {
		t.Fatalf("intra-supernode overlap MoE phase %v != a2a+expert %v", intra.MoEPhase, want)
	}
}

func TestGoodputHasInteriorOptimumOverInterval(t *testing.T) {
	// Checkpointing too often pays the writer; too rarely pays rework.
	// The classic Young–Daly trade must produce an interior optimum.
	d := fullDeployment(A2AHierarchical)
	spec := BrainScaleSpecs()[0]
	spec.NumExperts = d.ExpertParallel
	intervals := []int{1, 16, 256, 4096}
	good := make([]float64, len(intervals))
	for i, iv := range intervals {
		p, err := d.PredictStep(spec, FaultModel{MTBFSteps: 400, CkptEverySteps: iv, Async: true})
		if err != nil {
			t.Fatal(err)
		}
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
}

func TestGoodputDegradesWithShorterMTBF(t *testing.T) {
	d := fullDeployment(A2AHierarchical)
	spec := BrainScaleSpecs()[0]
	spec.NumExperts = d.ExpertParallel
	var prev float64 = -1
	for _, mtbf := range []float64{50, 500, 5000} {
		p, err := d.PredictStep(spec, FaultModel{MTBFSteps: mtbf, CkptEverySteps: 64, Async: true})
		if err != nil {
			t.Fatal(err)
		}
		if p.Goodput <= prev {
			t.Fatalf("goodput %v not increasing with MTBF %v", p.Goodput, mtbf)
		}
		prev = p.Goodput
	}
}

func TestSyncBytesMatchRingFormula(t *testing.T) {
	d := validDeployment()
	spec := tinySpec()
	p, err := d.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	ranks := d.Ranks()
	want := 2 * float64(ranks-1) / float64(ranks) * float64(spec.DenseParams()) * 4
	want += 2 * float64(d.DataParallel-1) / float64(d.DataParallel) *
		float64(spec.ExpertParamsTotal()/int64(d.ExpertParallel)) * 4
	if math.Abs(p.SyncBytes-want) > 1e-6*want {
		t.Fatalf("sync bytes %v, want %v", p.SyncBytes, want)
	}
}

// TestSyncPricesDenseAndExpertConcurrently: the engine issues the dense
// and expert gradient all-reduces together, so on W2's dp2×ep4 shape
// (four supernodes of one two-rank node) Sync is the longer schedule,
// floored by both schedules' NIC injection plus the longer latency —
// spelled out here from the machine constants. With one data-parallel
// replica there is no expert all-reduce, and Sync is the dense
// schedule's old single-group value to the bit.
func TestSyncPricesDenseAndExpertConcurrently(t *testing.T) {
	spec := ModelSpec{
		Name: "w2", Vocab: 256, Dim: 128, Heads: 4, Layers: 2, SeqLen: 32,
		FFNHidden: 256, NumExperts: 16, MoEHidden: 256, MoEEvery: 1, TopK: 2,
	}
	d := Deployment{
		Machine: sunway.TestMachine(4, 1), RanksPerNode: 2,
		Grid:         layout.Grid{DataParallel: 2, ExpertParallel: 4},
		BatchPerRank: 4, Precision: sunway.Mixed, Efficiency: 0.3,
	}
	topo := simnet.New(d.Machine, d.RanksPerNode)
	a, b, over := topo.Alpha, topo.Beta, d.Machine.BisectionOversub
	const sn, m = simnet.SupernodeLevel, simnet.MachineLevel
	denseN := float64(spec.DenseParams())
	expertB := 2 * float64(spec.ExpertParamsTotal()/int64(d.ExpertParallel)) // one shard, every hop 2 B
	// Dense: eight ranks, two per supernode — a local pair at 2 B an
	// element, then four supernodes' rails over half the buffer each.
	// A rail ring starts from local sums: its three reduce-scatter hops
	// carry partial sums at 4 B and its three all-gather hops 2 B, 3 B
	// an element on average.
	denseB, railB := 2*denseN, 3*denseN/2
	dense := arCost{
		total: a[sn] + denseB*b[sn] + 1.5*(a[m]+railB*b[m])*over,
		lat:   a[sn] + 1.5*a[m]*over,
		nic:   denseB*b[sn] + 1.5*railB*b[m]*over,
	}
	// Expert: the two replicas of a shard, in different supernodes.
	expert := arCost{total: (a[m] + expertB*b[m]) * over, lat: a[m] * over, nic: expertB * b[m] * over}
	want := max(dense.total, expert.total, dense.nic+expert.nic+max(dense.lat, expert.lat))

	p, err := d.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("dp2×ep4: dense %+v, expert %+v, Sync %v", dense, expert, p.Sync)
	if math.Abs(p.Sync-want) > 1e-12*want {
		t.Fatalf("dp2×ep4 Sync %v, concurrent formula %v (dense %+v, expert %+v)", p.Sync, want, dense, expert)
	}
	if p.Sync >= dense.total+expert.total {
		t.Fatalf("dp2×ep4 Sync %v is no better than the serial %v", p.Sync, dense.total+expert.total)
	}

	d.DataParallel, d.ExpertParallel = 1, 8
	p, err = d.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	const L, S = 2, 4
	single := 2*float64(L-1)/float64(L)*topo.CostAtLevel(sn, int(denseB)) +
		2*float64(S-1)/float64(S)*topo.CostAtLevel(m, int(railB))*over
	if p.Sync != single {
		t.Fatalf("dp1×ep8 Sync %v, want the single-group value %v", p.Sync, single)
	}
}

// TestVisibleSyncIsBucketedOverlap pins how PredictStep prices the
// engine's gradient buckets on W4's shape (dp8 over two supernodes of
// two two-rank nodes): the sync starts under the backward, so what shows
// is less than the whole, but never less than the last group's own sync.
// Block 0's bucket holds its dense part with the embeddings and its
// expert part; the expert part leaves from inside the MoE layer's
// backward, as soon as the expert GEMMs have made its gradients final,
// with block 0's return leg, gate, attention and the embeddings' backward
// still to run. Only the dense part with the embeddings leaves as the
// backward ends, so the floor is that one all-reduce alone, not the pair
// priced concurrently: on this shape the floor falls from 51.0 µs (the
// dense all-reduce beside block 0's four experts') to 22.7 µs. At
// Efficiency 0.3 the visible sync stays 62.2 µs of the 93.7 µs whole —
// the part that does not fit under the backward, above either floor.
// With compute slow enough to hide everything else, the floor is all
// that shows.
func TestVisibleSyncIsBucketedOverlap(t *testing.T) {
	spec := ModelSpec{
		Name: "w4", Vocab: 256, Dim: 64, Heads: 4, Layers: 2, SeqLen: 32,
		FFNHidden: 128, NumExperts: 4, MoEHidden: 128, MoEEvery: 1, TopK: 2,
	}
	d := Deployment{
		Machine: sunway.TestMachine(2, 2), RanksPerNode: 2,
		Grid:         layout.Grid{DataParallel: 8, ExpertParallel: 1},
		BatchPerRank: 4, Precision: sunway.FP32, Efficiency: 0.3,
	}
	topo := simnet.New(d.Machine, d.RanksPerNode)
	last := d.allReduceCost(topo, 8, 1, float64(spec.embedParams()+spec.blockDenseParams(0))).total
	p, err := d.PredictStep(spec, FaultModel{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sync %v, visible %v, last group %v", p.Sync, p.VisibleSync, last)
	if !(last <= p.VisibleSync && p.VisibleSync < p.Sync) {
		t.Fatalf("visible sync %v outside [last group %v, whole sync %v)", p.VisibleSync, last, p.Sync)
	}
	d.Efficiency = 1e-4
	if p, err = d.PredictStep(spec, FaultModel{}); err != nil {
		t.Fatal(err)
	}
	if p.VisibleSync != last {
		t.Fatalf("under a long backward the visible sync is %v, want the last group's %v", p.VisibleSync, last)
	}
}
