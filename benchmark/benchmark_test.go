package main

import (
	"path/filepath"
	"sort"
	"testing"

	"bagualu/internal/metrics"
)

// TestSmoke runs all six workloads and their ladders at tiny sizes, so
// tier-1 catches drift in the entry points the benchmark calls, and
// checks that the metric and workload names the code emits are exactly
// those BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	man, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(man.Workloads), len(workloads))
	}
	e2e, layer := map[string]bool{}, map[string]bool{}
	for i, w := range workloads {
		if man.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, man.Workloads[i].Name, w.name)
		}
		for _, trace := range []bool{false, true} {
			ctx := &runCtx{seed: 1, trace: trace, tmp: t.TempDir()}
			out := w.execute(ctx, tinySpecs(), true)
			for _, p := range out.problems {
				t.Errorf("%s trace=%v: %s", w.name, trace, p)
			}
			if out.attempted < 1 || out.failed != 0 || out.digest == "" {
				t.Errorf("%s trace=%v: attempted %d failed %d digest %q", w.name, trace, out.attempted, out.failed, out.digest)
			}
			for name, v := range out.e2e {
				e2e[name] = true
				if !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, v)
				}
			}
			if !trace {
				continue
			}
			for name := range out.layer {
				layer[name] = true
			}
			if err := ctx.tr.write(filepath.Join(ctx.tmp, "trace.json")); err != nil {
				t.Errorf("%s: writing trace: %v", w.name, err)
			}
			for name, secs := range ctx.tr.selfSeconds() {
				if secs < 0 {
					t.Errorf("%s: span %s has negative self time %v", w.name, name, secs)
				}
			}
		}
	}
	ctx := &runCtx{seed: 1, trace: true, tmp: t.TempDir()}
	out := newOutcome()
	modelRungs(ctx, out)
	for _, p := range out.problems {
		t.Error(p)
	}
	for name := range out.layer {
		layer[name] = true
	}
	e2e["host_peak_rss_mb"] = true // read once per process, in run

	sameNames(t, "end_to_end", man.EndToEnd, e2e)
	sameNames(t, "per_layer", man.PerLayer, layer)
}

func sameNames(t *testing.T, what string, defs []metricDef, emitted map[string]bool) {
	t.Helper()
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.Name] = true
		if !emitted[d.Name] {
			t.Errorf("%s: %s is in BENCHMARK.json but no workload emits it", what, d.Name)
		}
	}
	var extra []string
	for name := range emitted {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		t.Errorf("%s: %s is emitted but not in BENCHMARK.json", what, name)
	}
}

// The interpolated quantile must stay inside the bucket whose upper edge
// metrics.Histogram.Quantile reports — which also pins the bucket layout
// stats.go mirrors.
func TestHistQuantileInsideBucket(t *testing.T) {
	h := metrics.NewLatencyHistogram()
	for i := 1; i <= 1000; i++ {
		h.Add(1e-3 * float64(i))
	}
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		hi := h.Quantile(q)
		got := histQuantile(h, q)
		if got > hi*(1+1e-9) || got < hi/latencyHistGrowth*(1-1e-9) {
			t.Errorf("q=%v: interpolated %v outside bucket (%v, %v]", q, got, hi/latencyHistGrowth, hi)
		}
	}
	if share := histShareBelow(h, 0.5, 2000); share < 0.24 || share > 0.26 {
		t.Errorf("share below 0.5 s of 2000 sent = %v, want ~0.25", share)
	}
}
