package simnet

import (
	"testing"

	"bagualu/internal/sunway"
)

func topo() *Topology {
	// 2 supernodes x 2 nodes x 2 ranks = 8 ranks.
	return New(sunway.TestMachine(2, 2), 2)
}

// cost prices nbytes between ranks a and b at the level that separates
// them.
func cost(tp *Topology, a, b, nbytes int) float64 {
	l := tp.LevelOf(a, b)
	return tp.Alpha[l] + float64(nbytes)*tp.Beta[l]
}

func TestLevelClassification(t *testing.T) {
	tp := topo()
	cases := []struct {
		a, b int
		want Level
	}{
		{0, 0, SelfLevel},
		{0, 1, NodeLevel},      // same node
		{0, 2, SupernodeLevel}, // same supernode, different node
		{0, 4, MachineLevel},   // different supernode
		{3, 2, NodeLevel},
		{7, 0, MachineLevel},
		{5, 6, SupernodeLevel},
	}
	for _, c := range cases {
		if got := tp.LevelOf(c.a, c.b); got != c.want {
			t.Errorf("LevelOf(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestNodeAndSupernodeMapping(t *testing.T) {
	tp := topo()
	if tp.Node(5) != 2 {
		t.Fatalf("Node(5) = %d", tp.Node(5))
	}
	if tp.Supernode(5) != 1 {
		t.Fatalf("Supernode(5) = %d", tp.Supernode(5))
	}
}

func TestCostMonotoneInHierarchy(t *testing.T) {
	tp := topo()
	n := 1 << 16
	self := cost(tp, 0, 0, n)
	node := cost(tp, 0, 1, n)
	sn := cost(tp, 0, 2, n)
	machine := cost(tp, 0, 4, n)
	if !(self < node && node < sn && sn < machine) {
		t.Fatalf("costs not monotone: %v %v %v %v", self, node, sn, machine)
	}
}

func TestCostAlphaBetaStructure(t *testing.T) {
	tp := topo()
	// Cost must be affine in message size.
	c0 := cost(tp, 0, 4, 0)
	c1 := cost(tp, 0, 4, 1000)
	c2 := cost(tp, 0, 4, 2000)
	if c0 != tp.Alpha[MachineLevel] {
		t.Fatalf("zero-byte cost %v != alpha %v", c0, tp.Alpha[MachineLevel])
	}
	if diff := (c2 - c1) - (c1 - c0); diff > 1e-18 || diff < -1e-18 {
		t.Fatalf("cost not affine: %v", diff)
	}
}

func TestUniformTopology(t *testing.T) {
	tp := Uniform(1e-6, 10)
	// All distinct-rank pairs are priced identically regardless of
	// the nominal level.
	if cost(tp, 0, 99, 4096) != cost(tp, 0, 1, 4096) {
		t.Fatal("uniform topology prices pairs differently")
	}
	if cost(tp, 0, 1, 0) != 1e-6 {
		t.Fatalf("uniform alpha = %v", cost(tp, 0, 1, 0))
	}
	if cost(tp, 5, 5, 1000) != 0 {
		t.Fatal("self transfer should be free in uniform topology")
	}
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{
		SelfLevel: "self", NodeLevel: "intra-node",
		SupernodeLevel: "intra-supernode", MachineLevel: "inter-supernode",
	} {
		if l.String() != want {
			t.Errorf("Level %d string = %q", l, l.String())
		}
	}
}

func TestDefaultRanksPerNode(t *testing.T) {
	tp := New(sunway.TestMachine(1, 2), 0) // 0 -> defaults to 1
	if tp.RanksPerNode != 1 {
		t.Fatalf("RanksPerNode = %d", tp.RanksPerNode)
	}
}

// TestTopologyDerivedFromMachineTables pins that New consumes the
// machine description's shared link tables — the dedup that keeps the
// analytic model (perfmodel) and the simulated runtime from drifting —
// and that sunway's LinkLevel order matches simnet's Level order.
func TestTopologyDerivedFromMachineTables(t *testing.T) {
	m := sunway.TestMachine(2, 4)
	m.SelfLatency = 123e-9
	tp := New(m, 2)
	const gib = 1024 * 1024 * 1024
	alphas, bws := m.LinkAlphas(), m.LinkBWGiBs()
	if int(sunway.LinkSelf) != int(SelfLevel) || int(sunway.LinkNode) != int(NodeLevel) ||
		int(sunway.LinkSupernode) != int(SupernodeLevel) || int(sunway.LinkMachine) != int(MachineLevel) {
		t.Fatal("sunway.LinkLevel order diverged from simnet.Level order")
	}
	for l := SelfLevel; l <= MachineLevel; l++ {
		if tp.Alpha[l] != alphas[l] {
			t.Fatalf("level %v alpha %v != machine table %v", l, tp.Alpha[l], alphas[l])
		}
		if want := 1 / (bws[l] * gib); tp.Beta[l] != want {
			t.Fatalf("level %v beta %v != machine table %v", l, tp.Beta[l], want)
		}
	}
	if tp.Alpha[SelfLevel] != 123e-9 {
		t.Fatal("self latency not taken from the machine description")
	}
}
