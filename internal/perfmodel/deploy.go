package perfmodel

import (
	"math"

	"bagualu/internal/parallel/layout"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
)

// A2AStrategy selects the analytic all-to-all cost model.
type A2AStrategy int

const (
	// A2AFlat prices the direct exchange: every rank exchanges
	// directly with every other rank.
	A2AFlat A2AStrategy = iota
	// A2AHierarchical prices the paper's supernode-leader
	// aggregation.
	A2AHierarchical
)

// String names the strategy.
func (a A2AStrategy) String() string {
	if a == A2AHierarchical {
		return "hierarchical"
	}
	return "flat"
}

// Deployment maps a model onto a machine.
type Deployment struct {
	Machine      *sunway.Machine
	RanksPerNode int // MPI ranks per node (1 per core group = 6 on SW26010-Pro)

	// Grid folds the ranks into [pp, dp, ep] and must cover them
	// exactly; its fold table gives every group PredictStep prices its
	// size and rank stride. Each of the PP stages holds V chunks of
	// Layers/(PP·V) contiguous blocks, so per-stage compute, dense
	// parameters, and dense gradient sync all scale by 1/PP; the price
	// is the fill/drain bubble, whose fraction (S-1)/(M·V) shrinks with
	// V, and the stage-boundary activation sends, which grow with V.
	layout.Grid

	// MicroBatches is the in-flight micro-batch count M; 0 defaults
	// to the pipeline depth (the token-fair choice the runtime uses:
	// Accum = S keeps the global batch equal to the non-PP engine).
	MicroBatches int

	BatchPerRank int // sequences per rank per step
	Precision    sunway.Precision

	// Efficiency is the fraction of per-node peak the GEMM kernels
	// sustain (measured ~0.3–0.5 on SW26010-Pro for this workload
	// class; a modeling knob, reported with every projection).
	Efficiency float64

	A2A A2AStrategy

	// ZeRO enables ZeRO-1-style sharding of the replicated (dense +
	// gate) parameters' optimizer state across the whole machine:
	// each rank keeps only FP16 working weights locally and a 1/P
	// slice of the FP32 master/m/v state. Without it, trillion-
	// parameter configurations cannot fit the 96 GiB node budget —
	// this is the paper's memory strategy.
	ZeRO bool

	// RecomputeFraction is the share of blocks under selective
	// activation recomputation, in [0,1]: a recomputed block keeps
	// only its input alive (1·d per token instead of ~6·d) and replays
	// its forward during backward, which PredictStep prices as extra
	// compute.
	RecomputeFraction float64

	// OffloadOptState parks the (post-ZeRO) optimizer state in the
	// host-memory tier: it stops counting against NodeMemGiB and
	// instead streams out and back every step at HostMemBWGiBs,
	// which PredictStep adds to the step time.
	OffloadOptState bool

	// WireFP16 models the FP16 on-the-wire codec of the MoE exchange:
	// elements bound for another supernode travel as 2 bytes on every
	// leg they take — the direct message, or the hierarchical staging
	// through node and supernode links and the leaders' crossing —
	// while elements that stay in their supernode keep the training
	// wire width. The analytic twin of mpi.FP16Wire.
	WireFP16 bool

	// OverlapA2A models the two-phase exchange (moe.CommConfig.Overlap):
	// expert compute runs while cross-supernode tokens are in flight,
	// so the visible MoE phase is max(a2a, expert compute) instead of
	// their sum. An expert group inside one supernode sends no such
	// tokens and keeps the sum.
	OverlapA2A bool
}

// Ranks returns the total rank count.
func (d Deployment) Ranks() int { return d.Machine.Nodes() * d.RanksPerNode }

// Micro returns the effective micro-batch count M: the configured
// value, or the token-fair default M = S.
func (d Deployment) Micro() int {
	if d.MicroBatches >= 1 {
		return d.MicroBatches
	}
	return d.PP()
}

// bytesPerElem is the wire size of an activation element in the given
// precision (half-precision activations in FP16/Mixed).
func bytesPerElem(p sunway.Precision) float64 {
	switch p {
	case sunway.FP64:
		return 8
	case sunway.FP16, sunway.Mixed:
		return 2
	default:
		return 4
	}
}

// a2aCost prices one all-to-all over an expert-parallel group of p
// ranks that sit stride ranks apart. intraBytes is the rank's total
// contribution at the training wire width; machineBytes is the same
// element volume at the inter-supernode wire width (smaller under the
// FP16 codec). It returns the cost in seconds and the rank's post-codec
// wire bytes.
func (d Deployment) a2aCost(t *simnet.Topology, p, stride int, intraBytes, machineBytes float64) (float64, float64) {
	if p <= 1 {
		return 0, 0
	}
	perPeer := intraBytes / float64(p-1)
	perPeerMachine := machineBytes / float64(p-1)
	// Count rank 0's peers at each level: a node or supernode of n
	// ranks holds ceil(n/stride) members of the group.
	perNode := (t.RanksPerNode + stride - 1) / stride
	perSN := (t.RanksPerSupernode() + stride - 1) / stride
	nodePeers := float64(min(p, perNode) - 1)
	snPeers := float64(min(p, perSN)-1) - nodePeers
	machinePeers := float64(p-1) - nodePeers - snPeers
	if machinePeers < 0 {
		machinePeers = 0
	}
	wireBytes := (nodePeers+snPeers)*perPeer + machinePeers*perPeerMachine
	switch d.A2A {
	case A2AHierarchical:
		if machinePeers == 0 {
			return d.flatCost(t, nodePeers, snPeers, 0, perPeer, perPeerMachine), wireBytes
		}
		// The paper's topology-aware exchange with balanced leader
		// sharding: ranks first combine their traffic at node level,
		// nodes exchange one aggregated message per peer node within
		// the supernode, and each node ships one aggregated message
		// per remote *supernode* (to its index-peer node there),
		// which then scatters locally. Per-rank accounting: total
		// bytes are unchanged (plus staging copies), but the number
		// of inter-supernode messages collapses from machinePeers to
		// supernodes-1.
		supernodes := math.Ceil(float64(p) / float64(perSN))
		// Elements bound for another supernode travel at the
		// inter-supernode wire width (FP16 under the codec) on every
		// leg: the staging through node and supernode links as well as
		// the bisection crossing.
		xsnBytes := machinePeers * perPeerMachine
		crossNodeBytes := snPeers*perPeer + xsnBytes

		// Gather to node level and final scatter from node level.
		stage := 2 * t.CostAtLevel(simnet.NodeLevel, int(crossNodeBytes))
		// Intra-supernode node-to-node exchange (direct part) plus
		// staging of the cross-SN aggregate through supernode links.
		local := nodePeers*t.CostAtLevel(simnet.NodeLevel, int(perPeer)) +
			snPeers*t.CostAtLevel(simnet.SupernodeLevel, int(perPeer))
		stage += 2 * t.CostAtLevel(simnet.SupernodeLevel, int(xsnBytes))
		// Inter-supernode: supernodes-1 aggregated messages carrying
		// this rank's share of the machine-level bytes, over the
		// oversubscribed bisection.
		xchg := (supernodes-1)*t.Alpha[simnet.MachineLevel] +
			xsnBytes*t.Beta[simnet.MachineLevel]*d.Machine.BisectionOversub
		return stage + local + xchg, wireBytes
	default:
		return d.flatCost(t, nodePeers, snPeers, machinePeers, perPeer, perPeerMachine), wireBytes
	}
}

// flatCost prices the direct exchange given peer counts per
// level; machine-level peers carry perPeerMachine (post-codec) bytes.
func (d Deployment) flatCost(t *simnet.Topology, nodePeers, snPeers, machinePeers, perPeer, perPeerMachine float64) float64 {
	c := nodePeers * t.CostAtLevel(simnet.NodeLevel, int(perPeer))
	c += snPeers * t.CostAtLevel(simnet.SupernodeLevel, int(perPeer))
	mc := machinePeers * t.CostAtLevel(simnet.MachineLevel, int(perPeerMachine))
	// Cross-supernode pairwise traffic all crosses the bisection.
	c += mc * d.Machine.BisectionOversub
	return c
}

// allReduceCost prices the gradient all-reduce of elems elements over p
// ranks that sit stride ranks apart (stride 1 is a contiguous group),
// following what mpi.Comm.AllReduceGrads executes. The group has L
// members in each of the S supernodes it touches. Inside one supernode
// it is a flat ring: 2·(p-1)/p of the buffer at the tier the group's
// span reaches. Across supernodes it is the rail schedule
// (mpi.Comm.AllReduceHier): a local reduce-scatter and all-gather move
// 2·(L-1)/L of the buffer, and every rank runs its own cross-supernode
// ring over 1/L of it, 2·(S-1)/S·1/L, each rank priced its own
// inter-supernode link thinned by BisectionOversub. L = 1 — a stride of
// a supernode or more — leaves only that ring, over the whole buffer.
// Each phase moves its elements at the widths of syncWire.
func (d Deployment) allReduceCost(t *simnet.Topology, p, stride int, elems float64) arCost {
	if elems == 0 {
		return arCost{}
	}
	return d.allReduceSchedule(t, p, stride, elems)
}

// allReduceLatency is the phase-startup (α-only) share of one
// all-reduce — what an extra collective costs regardless of payload.
// ZeRO replaces each fused all-reduce with a reduce-scatter +
// all-gather pair: identical bytes, twice the collective phases, so
// PredictStep charges one extra latency per sharded group.
func (d Deployment) allReduceLatency(t *simnet.Topology, p, stride int) float64 {
	return d.allReduceSchedule(t, p, stride, 0).total
}

// arCost is one all-reduce schedule's price: its total, and the two
// shares a second all-reduce issued beside it contends for — the phase
// startups (lat, the total at zero bytes) and the injection time on the
// rank's NIC (nic: the n·β of its supernode- and machine-level phases;
// intra-node phases inject through shared memory, mpi's copy port) —
// and the bytes it sends per rank.
type arCost struct{ total, lat, nic, bytes float64 }

// syncWire is the width in bytes of one element on a gradient-sync
// hop: raw on a hop that carries one rank's own contribution, partial
// on one that carries a partial sum, and gather on an all-gather hop.
// Under FP16 and Mixed the engine sends raw contributions and finished
// sums at 2 B and partial sums at 4 B (mpi.GradWire); ZeRO's all-gather
// carries float32 parameters. Every other precision sends everything at
// its training width.
type syncWire struct{ raw, partial, gather float64 }

func (d Deployment) syncWire() syncWire {
	w := bytesPerElem(d.Precision)
	sw := syncWire{raw: w, partial: w, gather: w}
	if d.Precision == sunway.FP16 || d.Precision == sunway.Mixed {
		sw = syncWire{raw: 2, partial: 4, gather: 2}
	}
	if d.ZeRO {
		sw.gather = sw.partial
	}
	return sw
}

// ring is the mean element width over the 2·(k-1) hops of a ring
// all-reduce over k ranks: its first reduce-scatter hop at first, the
// k-2 after it at partial, and its k-1 all-gather hops at gather.
func (w syncWire) ring(k int, first float64) float64 {
	if k <= 1 {
		return w.gather
	}
	return (first + float64(k-2)*w.partial + float64(k-1)*w.gather) / float64(2*(k-1))
}

// allReduceSchedule is the one derivation behind both: the schedule's
// cost at the given payload, its phase startups alone at zero elements.
func (d Deployment) allReduceSchedule(t *simnet.Topology, p, stride int, elems float64) arCost {
	if p <= 1 {
		return arCost{}
	}
	rsn := t.RanksPerSupernode()
	L := min(p, (rsn+stride-1)/stride)
	S := (p + L - 1) / L
	if S > 1 && p < 4 {
		// Comm.AllReduce keeps the flat ring below four ranks.
		L, S = 1, p
	}
	local := simnet.SupernodeLevel
	if stride > 1 {
		local = t.LevelOf(0, (L-1)*stride)
	}
	// A flat ring's first hop carries raw contributions; the rail
	// schedule's local reduce-scatter carries raw contributions and its
	// local all-gather finished values, and its cross-supernode ring
	// starts from local sums unless each supernode holds one member.
	w := d.syncWire()
	lw, first := w.ring(L, w.raw), w.partial
	if S > 1 {
		lw = (w.raw + w.gather) / 2
	}
	if L == 1 {
		first = w.raw
	}
	bytes := elems * lw
	kl := 2 * float64(L-1) / float64(L)
	c := arCost{total: kl * t.CostAtLevel(local, int(bytes)), lat: kl * t.Alpha[local], bytes: kl * bytes}
	if local >= simnet.SupernodeLevel {
		c.nic = kl * float64(int(bytes)) * t.Beta[local]
	}
	if S > 1 {
		ks := 2 * float64(S-1) / float64(S)
		over := d.Machine.BisectionOversub
		xb := elems * w.ring(S, first) / float64(L)
		c.total += ks * t.CostAtLevel(simnet.MachineLevel, int(xb)) * over
		c.lat += ks * t.Alpha[simnet.MachineLevel] * over
		c.nic += ks * float64(int(xb)) * t.Beta[simnet.MachineLevel] * over
		c.bytes += ks * xb
	}
	return c
}

// concurrentSync prices two all-reduces issued together, as the engine
// issues the dense and expert gradient sync (mpi.Comm.Start): each runs
// its own schedule, but every byte either sends leaves through the
// rank's one NIC. The pair takes the longer of the two schedules,
// floored by their summed NIC injection plus the longer latency.
func concurrentSync(a, b arCost) float64 {
	return max(a.total, b.total, a.nic+b.nic+max(a.lat, b.lat))
}
