// Package simnet models the hierarchical interconnect of the New
// Generation Sunway machine as an α–β (latency–bandwidth) cost
// hierarchy over three levels: intra-node, intra-supernode, and
// inter-supernode.
//
// The mpi package moves real bytes between goroutines but charges
// *virtual time* according to this model, so collective-algorithm
// experiments reproduce the topology effects the paper exploits
// (e.g. the hierarchical all-reduce beating the flat ring once traffic
// crosses supernodes) without the actual network.
package simnet

import (
	"fmt"

	"bagualu/internal/sunway"
)

// Level identifies which tier of the hierarchy a message crosses.
type Level int

const (
	// SelfLevel is a rank sending to itself (memcpy).
	SelfLevel Level = iota
	// NodeLevel is communication between ranks on the same node.
	NodeLevel
	// SupernodeLevel is between nodes within one supernode.
	SupernodeLevel
	// MachineLevel is between supernodes.
	MachineLevel
)

// String names the level.
func (l Level) String() string {
	switch l {
	case SelfLevel:
		return "self"
	case NodeLevel:
		return "intra-node"
	case SupernodeLevel:
		return "intra-supernode"
	case MachineLevel:
		return "inter-supernode"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Topology maps ranks onto the machine hierarchy and prices messages.
// Ranks are laid out densely: rank r lives on node r/RanksPerNode,
// and node n lives in supernode n/NodesPerSupernode. This matches the
// natural MPI rank ordering on the real machine.
type Topology struct {
	RanksPerNode      int
	NodesPerSupernode int

	// α (startup latency, seconds) and inverse-β (seconds per byte)
	// per level. Self transfers are priced at memory-copy speed.
	Alpha [4]float64
	Beta  [4]float64 // seconds per byte
}

// New builds a Topology from a machine description and a ranks-per-
// node choice (the paper runs one MPI rank per core group, i.e. 6 per
// node; tests often use 1).
func New(m *sunway.Machine, ranksPerNode int) *Topology {
	if ranksPerNode <= 0 {
		ranksPerNode = 1
	}
	const gib = 1024 * 1024 * 1024
	t := &Topology{
		RanksPerNode:      ranksPerNode,
		NodesPerSupernode: m.NodesPerSupernode,
	}
	// Both α and β come from the machine description's shared link
	// tables — the same tables perfmodel prices against — so the
	// simulated runtime and the analytic model cannot silently drift.
	// sunway.LinkLevel order matches Level order (pinned by test).
	alphas, bws := m.LinkAlphas(), m.LinkBWGiBs()
	for l := SelfLevel; l <= MachineLevel; l++ {
		t.Alpha[l] = alphas[l]
		t.Beta[l] = 1 / (bws[l] * gib)
	}
	return t
}

// Uniform returns a flat topology where every pair of distinct ranks
// is priced identically — the "no hierarchy" baseline for ablations.
func Uniform(alpha float64, bwGiBs float64) *Topology {
	const gib = 1024 * 1024 * 1024
	t := &Topology{RanksPerNode: 1, NodesPerSupernode: 1 << 30}
	for l := SelfLevel; l <= MachineLevel; l++ {
		t.Alpha[l] = alpha
		t.Beta[l] = 1 / (bwGiBs * gib)
	}
	t.Alpha[SelfLevel] = 0
	t.Beta[SelfLevel] = 0
	return t
}

// Node returns the node index of a rank.
func (t *Topology) Node(rank int) int { return rank / t.RanksPerNode }

// Supernode returns the supernode index of a rank.
func (t *Topology) Supernode(rank int) int {
	return t.Node(rank) / t.NodesPerSupernode
}

// LevelOf classifies the path between two ranks.
func (t *Topology) LevelOf(a, b int) Level {
	switch {
	case a == b:
		return SelfLevel
	case t.Node(a) == t.Node(b):
		return NodeLevel
	case t.Supernode(a) == t.Supernode(b):
		return SupernodeLevel
	default:
		return MachineLevel
	}
}

// CostAtLevel prices nbytes at a given level directly.
func (t *Topology) CostAtLevel(l Level, nbytes int) float64 {
	return t.Alpha[l] + float64(nbytes)*t.Beta[l]
}

// RanksPerSupernode returns the number of ranks grouped under one
// supernode leader.
func (t *Topology) RanksPerSupernode() int {
	return t.RanksPerNode * t.NodesPerSupernode
}

// Traffic is an immutable per-level snapshot of message and byte
// counters. simnet owns the level vocabulary, so the snapshot type
// the byte meters pass around lives here; the mpi runtime produces
// them (World.Stats().Snapshot()).
type Traffic struct {
	Msgs  [4]int64 // indexed by Level
	Bytes [4]int64
}

// Sub returns t minus o — the delta between two snapshots taken
// around a step or phase.
func (t Traffic) Sub(o Traffic) Traffic {
	for l := range t.Msgs {
		t.Msgs[l] -= o.Msgs[l]
		t.Bytes[l] -= o.Bytes[l]
	}
	return t
}

// InterBytes returns the bytes that crossed supernodes — the tier the
// FP16 wire codec targets.
func (t Traffic) InterBytes() int64 { return t.Bytes[MachineLevel] }

// TotalBytes sums bytes over every level including self copies.
func (t Traffic) TotalBytes() int64 {
	var n int64
	for _, b := range t.Bytes {
		n += b
	}
	return n
}
