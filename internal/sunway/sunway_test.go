package sunway

import "testing"

func TestFullMachineShape(t *testing.T) {
	m := NewGenerationSunway()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 96000 {
		t.Fatalf("Nodes = %d, want 96000", m.Nodes())
	}
	// The headline: over 37 million cores.
	if m.Cores() <= 37_000_000 {
		t.Fatalf("Cores = %d, want > 37M", m.Cores())
	}
	if perNode := m.Cores() / m.Nodes(); perNode != 390 {
		t.Fatalf("cores per node = %d, want 390", perNode)
	}
	if m.CoreGroups() != 96000*6 {
		t.Fatalf("CoreGroups = %d", m.CoreGroups())
	}
}

func TestPeakFlopsOrdering(t *testing.T) {
	m := NewGenerationSunway()
	fp16 := float64(m.Nodes()) * m.NodeFlops(FP16)
	if !(fp16 > float64(m.Nodes())*m.NodeFlops(FP32)) {
		t.Fatal("fp16 peak must exceed fp32 peak")
	}
	// Full machine half-precision peak should be in exaflop range.
	if fp16 < 1e18 {
		t.Fatalf("fp16 peak %.3g < 1 EFLOPS", fp16)
	}
}

func TestNodeFlops(t *testing.T) {
	m := NewGenerationSunway()
	if m.NodeFlops(FP16) != m.NodeFlops(Mixed) {
		t.Fatal("mixed must use fp16 rate")
	}
	if m.NodeFlops(FP64) != m.CGGflopsFP64*6*1e9 {
		t.Fatalf("NodeFlops(FP64) = %v", m.NodeFlops(FP64))
	}
}

func TestTestMachine(t *testing.T) {
	m := TestMachine(2, 4)
	if m.Nodes() != 8 {
		t.Fatalf("Nodes = %d", m.Nodes())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	cases := []func(*Machine){
		func(m *Machine) { m.Supernodes = 0 },
		func(m *Machine) { m.CPEsPerCoreGroup = 0 },
		func(m *Machine) { m.CGGflopsFP16 = 0 },
		func(m *Machine) { m.NodeMemGiB = -1 },
		func(m *Machine) { m.InterSNBWGiBs = 0 },
		func(m *Machine) { m.BisectionOversub = 0.5 },
	}
	for i, mut := range cases {
		m := NewGenerationSunway()
		mut(m)
		if m.Validate() == nil {
			t.Errorf("case %d: invalid machine accepted", i)
		}
	}
}

func TestPrecisionStrings(t *testing.T) {
	for p, want := range map[Precision]string{
		FP64: "fp64", FP32: "fp32", FP16: "fp16", Mixed: "mixed",
	} {
		if p.String() != want {
			t.Errorf("Precision %d = %q", p, p.String())
		}
	}
}

func TestBytesPerParam(t *testing.T) {
	// Mixed mode: fp16 weight + fp32 master + fp32 m + fp32 v = 14.
	if BytesPerParam := Mixed.BytesPerParam(); BytesPerParam != 14 {
		t.Fatalf("Mixed BytesPerParam = %v", BytesPerParam)
	}
	if FP32.BytesPerParam() != 12 {
		t.Fatalf("FP32 BytesPerParam = %v", FP32.BytesPerParam())
	}
	if !(FP16.BytesPerParam() < Mixed.BytesPerParam()) {
		t.Fatal("fp16 must be smaller than mixed")
	}
}

func TestLinkTablesMatchFields(t *testing.T) {
	// The link tables are the single α–β source for simnet and
	// perfmodel; they must expose exactly the per-field description.
	m := NewGenerationSunway()
	alphas, bws := m.LinkAlphas(), m.LinkBWGiBs()
	wantA := [4]float64{m.SelfLatency, m.IntraNodeLatency, m.IntraSNLatency, m.InterSNLatency}
	wantB := [4]float64{m.CGMemBWGiBs, m.IntraNodeBWGiBs, m.IntraSNBWGiBs, m.InterSNBWGiBs}
	if alphas != wantA {
		t.Fatalf("LinkAlphas %v != fields %v", alphas, wantA)
	}
	if bws != wantB {
		t.Fatalf("LinkBWGiBs %v != fields %v", bws, wantB)
	}
	if m.SelfLatency <= 0 || m.DiskBWGiBs <= 0 {
		t.Fatalf("default machine missing self latency (%v) or disk bandwidth (%v)",
			m.SelfLatency, m.DiskBWGiBs)
	}
}

func TestValidateRejectsNegativeLinkExtras(t *testing.T) {
	m := NewGenerationSunway()
	m.SelfLatency = -1
	if err := m.Validate(); err == nil {
		t.Fatal("negative self latency accepted")
	}
	m = NewGenerationSunway()
	m.DiskBWGiBs = -1
	if err := m.Validate(); err == nil {
		t.Fatal("negative disk bandwidth accepted")
	}
}
