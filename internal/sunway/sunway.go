// Package sunway models the New Generation Sunway supercomputer that
// BaGuaLu ran on: SW26010-Pro processors organized as core groups
// (1 management core + 64 compute cores each), 6 core groups per
// node, 256 nodes per supernode, and ~96,000 nodes in the full
// machine — over 37 million cores in total.
//
// The real hardware is inaccessible, so this package provides an
// analytic stand-in: a parameterized machine description with
// compute, memory, and network budgets. The perfmodel package uses it
// to project measured small-scale behaviour to full-machine scale,
// and simnet derives its latency/bandwidth hierarchy from it.
//
// Default figures are estimates reconstructed from public material on
// the New Generation Sunway system; they are configuration, not
// measurements, and every experiment that depends on them says so.
package sunway

import "fmt"

// Machine describes a (possibly scaled-down) Sunway-like system.
type Machine struct {
	// Topology.
	Supernodes        int // number of supernodes
	NodesPerSupernode int // nodes in one supernode
	CoreGroupsPerNode int // core groups (CGs) per node; 6 on SW26010-Pro
	CPEsPerCoreGroup  int // compute cores per CG; 64 on SW26010-Pro
	MPEsPerCoreGroup  int // management cores per CG; 1 on SW26010-Pro

	// Per-core-group compute throughput in GFLOP/s.
	CGGflopsFP64 float64
	CGGflopsFP32 float64
	CGGflopsFP16 float64 // half precision; the mixed-precision target

	// Memory per node in GiB and aggregate bandwidth per CG in GiB/s.
	NodeMemGiB  float64
	CGMemBWGiBs float64

	// Host-memory offload tier: slower, larger memory reachable from a
	// node (on Sunway-like systems, the MPE-attached DDR pool behind
	// the accelerator-visible HBM/LDM hierarchy; on the I/O forwarding
	// path, burst-buffer staging RAM). Optimizer state parked there
	// costs HostMemBWGiBs-priced traffic every step instead of
	// NodeMemGiB capacity. Estimates, like every other figure here.
	HostMemGiB    float64
	HostMemBWGiBs float64

	// Network: latency (seconds) and per-link bandwidth (GiB/s) at
	// each hierarchy level. SelfLatency is the startup cost of a
	// rank-local memcpy "transfer" (self bandwidth is CGMemBWGiBs).
	SelfLatency      float64
	IntraNodeLatency float64
	IntraSNLatency   float64
	InterSNLatency   float64
	IntraNodeBWGiBs  float64
	IntraSNBWGiBs    float64
	InterSNBWGiBs    float64
	BisectionOversub float64 // inter-supernode oversubscription factor (>1 = thinner)

	// DiskBWGiBs is the per-rank checkpoint/burst-buffer bandwidth.
	// ckpt.Config and the autotuner's checkpoint-interval pricing both
	// read it so the simulated writer and the analytic goodput model
	// cannot drift.
	DiskBWGiBs float64
}

// LinkLevel indexes the four network tiers of LinkAlphas/LinkBWGiBs.
// The order matches simnet's Level vocabulary (self, intra-node,
// intra-supernode, inter-supernode); simnet pins the correspondence
// with a test so the two cannot drift.
type LinkLevel int

const (
	LinkSelf LinkLevel = iota
	LinkNode
	LinkSupernode
	LinkMachine
)

// LinkAlphas returns the startup latency (seconds) of each network
// tier. This table — not per-field reads scattered across packages —
// is the single source the simulated runtime (simnet) and the
// analytic model (perfmodel) derive their α constants from.
func (m *Machine) LinkAlphas() [4]float64 {
	return [4]float64{m.SelfLatency, m.IntraNodeLatency, m.IntraSNLatency, m.InterSNLatency}
}

// LinkBWGiBs returns the per-link bandwidth (GiB/s) of each network
// tier; the self tier moves at core-group memory-copy speed. Like
// LinkAlphas, it is the shared β source for simnet and perfmodel.
func (m *Machine) LinkBWGiBs() [4]float64 {
	return [4]float64{m.CGMemBWGiBs, m.IntraNodeBWGiBs, m.IntraSNBWGiBs, m.InterSNBWGiBs}
}

// NewGenerationSunway returns the full-scale machine description used
// by the paper's headline runs: ~96k nodes, >37M cores.
func NewGenerationSunway() *Machine {
	return &Machine{
		Supernodes:        375, // 375*256 = 96,000 nodes
		NodesPerSupernode: 256,
		CoreGroupsPerNode: 6,
		CPEsPerCoreGroup:  64,
		MPEsPerCoreGroup:  1,
		CGGflopsFP64:      2300, // ~14 TFLOPS FP64 per node / 6 CGs
		CGGflopsFP32:      2300, // SW26010-Pro FP32 peak tracks FP64
		CGGflopsFP16:      9200, // 4x vector width at half precision
		NodeMemGiB:        96,
		CGMemBWGiBs:       51.2,
		HostMemGiB:        192,   // DDR pool per node behind the fast tier
		HostMemBWGiBs:     12.8,  // one DDR channel's worth, shared per node
		DiskBWGiBs:        2,     // burst-buffer share per rank
		SelfLatency:       50e-9, // memcpy startup
		IntraNodeLatency:  0.3e-6,
		IntraSNLatency:    2.0e-6,
		InterSNLatency:    4.5e-6,
		IntraNodeBWGiBs:   25, // cross-CG via shared memory; below raw memcpy BW
		IntraSNBWGiBs:     16,
		InterSNBWGiBs:     12,
		BisectionOversub:  4,
	}
}

// TestMachine returns a tiny configuration with the same shape
// constants, convenient for unit tests and in-process simulation. Its
// inter-supernode links carry no bisection taper: the simulated network
// (internal/simnet) gives every rank its own link and has no shared
// uplink to thin, so the analytic model prices test machines as the
// simulator runs them.
func TestMachine(supernodes, nodesPerSN int) *Machine {
	m := NewGenerationSunway()
	m.Supernodes = supernodes
	m.NodesPerSupernode = nodesPerSN
	m.BisectionOversub = 1
	return m
}

// Nodes returns the total node count.
func (m *Machine) Nodes() int { return m.Supernodes * m.NodesPerSupernode }

// CoreGroups returns the total number of core groups.
func (m *Machine) CoreGroups() int { return m.Nodes() * m.CoreGroupsPerNode }

// Cores returns the total core count (MPEs + CPEs).
func (m *Machine) Cores() int {
	return m.CoreGroups() * (m.CPEsPerCoreGroup + m.MPEsPerCoreGroup)
}

// CoresPerNode returns cores in one node.
func (m *Machine) CoresPerNode() int {
	return m.CoreGroupsPerNode * (m.CPEsPerCoreGroup + m.MPEsPerCoreGroup)
}

// PeakFlopsFP16 returns the machine-wide half-precision peak in FLOP/s.
func (m *Machine) PeakFlopsFP16() float64 {
	return float64(m.CoreGroups()) * m.CGGflopsFP16 * 1e9
}

// PeakFlopsFP32 returns the machine-wide single-precision peak in FLOP/s.
func (m *Machine) PeakFlopsFP32() float64 {
	return float64(m.CoreGroups()) * m.CGGflopsFP32 * 1e9
}

// TotalMemGiB returns aggregate node memory.
func (m *Machine) TotalMemGiB() float64 {
	return float64(m.Nodes()) * m.NodeMemGiB
}

// NodeFlops returns one node's peak at the given precision.
func (m *Machine) NodeFlops(p Precision) float64 {
	var g float64
	switch p {
	case FP64:
		g = m.CGGflopsFP64
	case FP32:
		g = m.CGGflopsFP32
	case FP16, Mixed, BF16:
		g = m.CGGflopsFP16
	default:
		panic(fmt.Sprintf("sunway: unknown precision %v", p))
	}
	return float64(m.CoreGroupsPerNode) * g * 1e9
}

// Validate checks the machine description for inconsistencies.
func (m *Machine) Validate() error {
	switch {
	case m.Supernodes <= 0 || m.NodesPerSupernode <= 0:
		return fmt.Errorf("sunway: non-positive topology: %d supernodes x %d nodes", m.Supernodes, m.NodesPerSupernode)
	case m.CoreGroupsPerNode <= 0 || m.CPEsPerCoreGroup <= 0:
		return fmt.Errorf("sunway: non-positive core-group shape")
	case m.CGGflopsFP16 <= 0 || m.CGGflopsFP32 <= 0 || m.CGGflopsFP64 <= 0:
		return fmt.Errorf("sunway: non-positive compute rate")
	case m.NodeMemGiB <= 0:
		return fmt.Errorf("sunway: non-positive node memory")
	case m.IntraNodeBWGiBs <= 0 || m.IntraSNBWGiBs <= 0 || m.InterSNBWGiBs <= 0:
		return fmt.Errorf("sunway: non-positive bandwidth")
	case m.SelfLatency < 0 || m.DiskBWGiBs < 0:
		return fmt.Errorf("sunway: negative self latency or disk bandwidth")
	case m.BisectionOversub < 1:
		return fmt.Errorf("sunway: bisection oversubscription %v < 1", m.BisectionOversub)
	}
	return nil
}

// String summarizes the machine.
func (m *Machine) String() string {
	return fmt.Sprintf("Sunway[%d SN x %d nodes = %d nodes, %d cores, %.2f PFLOPS fp16 peak, %.0f TiB mem]",
		m.Supernodes, m.NodesPerSupernode, m.Nodes(), m.Cores(),
		m.PeakFlopsFP16()/1e15, m.TotalMemGiB()/1024)
}

// Precision enumerates the numeric formats the machine supports.
type Precision int

const (
	FP64 Precision = iota
	FP32
	FP16
	Mixed // FP16 compute with FP32 master weights — the paper's mode
	BF16  // bfloat16: FP32 exponent range, no loss scaling needed
)

// String returns the precision name.
func (p Precision) String() string {
	switch p {
	case FP64:
		return "fp64"
	case FP32:
		return "fp32"
	case FP16:
		return "fp16"
	case Mixed:
		return "mixed"
	case BF16:
		return "bf16"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// BytesPerParam returns the storage bytes per model parameter in the
// given training mode, including optimizer state (Adam: m and v).
// Mixed keeps FP16 weights + FP32 master + FP32 m/v.
func (p Precision) BytesPerParam() float64 {
	switch p {
	case FP64:
		return 8 + 8 + 8 + 8 // weight + master-free + m + v
	case FP32:
		return 4 + 4 + 4 // weight + m + v
	case FP16:
		return 2 + 2 + 2
	case Mixed:
		return 2 + 4 + 4 + 4 // fp16 weight + fp32 master + m + v
	case BF16:
		return 2 + 2 + 2
	default:
		panic("sunway: unknown precision")
	}
}
