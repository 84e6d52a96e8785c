package metrics

import "testing"

func TestHistogramQuantileBounds(t *testing.T) {
	h := NewHistogram(1e-3, 1.1, 200)
	// 1..1000 ms; the q-quantile upper bound must bracket the true
	// value within one growth factor.
	for i := 1; i <= 1000; i++ {
		h.Add(float64(i) * 1e-3)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
		truth := q // values are uniform on (0, 1]
		got := h.Quantile(q)
		if got < truth*0.999 || got > truth*1.1*1.001 {
			t.Fatalf("q=%v: got %v, want within [%v, %v]", q, got, truth, truth*1.1)
		}
	}
	if h.Max() != 1.0 {
		t.Fatalf("max %v", h.Max())
	}
}

func TestHistogramQuantileDeterministicOnTies(t *testing.T) {
	a := NewLatencyHistogram()
	b := NewLatencyHistogram()
	vals := []float64{0.004, 0.001, 0.009, 0.002, 0.004}
	for _, v := range vals {
		a.Add(v)
	}
	for i := range vals {
		b.Add(vals[len(vals)-1-i])
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.99, 1} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("q=%v: insertion order changed quantile", q)
		}
	}
}

// Absorbing a shard's Snapshot must equal having observed everything
// in one histogram — the property the serving engine's rank-level
// merge relies on.
func TestHistogramSnapshotAbsorb(t *testing.T) {
	src := NewLatencyHistogram()
	for i := 1; i <= 300; i++ {
		src.Add(float64(i) * 2e-4)
	}
	dst := NewLatencyHistogram()
	dst.Add(5e-3)
	dst.Absorb(src.Snapshot())
	if dst.Count() != 301 {
		t.Fatalf("count %d", dst.Count())
	}
	want := NewLatencyHistogram()
	want.Add(5e-3)
	for i := 1; i <= 300; i++ {
		want.Add(float64(i) * 2e-4)
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		if dst.Quantile(q) != want.Quantile(q) {
			t.Fatalf("q=%v: absorb %v != combined %v", q, dst.Quantile(q), want.Quantile(q))
		}
	}
}

func TestHistogramUnderflowAndOverflow(t *testing.T) {
	h := NewHistogram(1.0, 2.0, 4) // edges 1,2,4,8,16; last bucket open
	h.Add(0.5)
	h.Add(100)
	if h.Quantile(0.25) != 1.0 {
		t.Fatalf("underflow quantile %v", h.Quantile(0.25))
	}
	if got := h.Quantile(1.0); got != 16.0 {
		t.Fatalf("overflow quantile %v", got)
	}
}
