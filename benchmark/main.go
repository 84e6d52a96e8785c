// Command benchmark is the repo's one benchmark: six named workloads
// through the public entry points (parallel.NewEngine/Step,
// parallel.RunFaultTolerant, serve.Run, fleet.Run), end-to-end metrics
// on both clocks (host wall time of the simulator, virtual time of the
// simulated machine), correctness checks, and — in a separate traced
// run — per-layer numbers from benchmark-side spans, counter snapshots
// and a ladder of isolated layer calls. See README.md.
//
//	go run ./benchmark -workload train_moe_ep8 -seed 1 -seconds 10 -trace 0
//	go run ./benchmark -workload train_moe_ep8 -trace 1   # per-layer run, writes benchmark/out/trace-*.json
//	go run ./benchmark -repeat 2                          # whole set twice, determinism + noise self-check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runCtx is what a workload needs to know about the run.
type runCtx struct {
	seed    uint64
	seconds float64 // host seconds the timed part keeps sampling for
	trace   bool
	tr      *tracer // nil when untraced
	tmp     string  // scratch directory inside the checkout, removed at exit
}

// another decides whether a round-based workload starts round n: always
// one; traced, exactly two (an untraced twin, then the traced round);
// untraced, as long as the next round — judged by the median so far —
// still ends within 1.2 x seconds, so a run overshoots by at most a
// fifth and a workload whose round fills the budget runs once.
func (c *runCtx) another(n int, start time.Time, hosts []float64) bool {
	switch {
	case n == 0:
		return true
	case c.trace:
		return n < 2
	}
	return time.Since(start).Seconds()+median(hosts) <= 1.2*c.seconds
}

// outcome is what one run reports.
type outcome struct {
	attempted, failed int
	problems          []string // correctness violations; any makes the run incorrect
	e2e, layer        map[string]float64
	digest            string
	lines             []string // human-readable context printed above the metrics
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) info(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

// workload binds a name to its runner and to the ladder a traced run
// climbs afterwards; the why lives in BENCHMARK.json and README.md.
type workload struct {
	name   string
	run    func(ctx *runCtx, s specs) *outcome
	ladder func(ctx *runCtx, out *outcome, s specs, small bool)
}

func engineWorkload(name string, pick func(specs) engineSpec) workload {
	return workload{name,
		func(ctx *runCtx, s specs) *outcome { return engineOutcome(ctx, pick(s), runEngine(ctx, pick(s))) },
		func(ctx *runCtx, out *outcome, s specs, small bool) { trainLadder(ctx, out, pick(s), small) }}
}

var workloads = []workload{
	engineWorkload("train_dense_1rank", func(s specs) engineSpec { return s.dense }),
	engineWorkload("train_moe_ep8", func(s specs) engineSpec { return s.moeEP }),
	engineWorkload("train_pp4_zero", func(s specs) engineSpec { return s.ppZero }),
	{"train_ft_crash",
		func(ctx *runCtx, s specs) *outcome { return runFT(ctx, s.ft) },
		func(ctx *runCtx, out *outcome, s specs, small bool) { trainLadder(ctx, out, s.ft.engineSpec, small) }},
	{"serve_fleet_faults",
		func(ctx *runCtx, s specs) *outcome { return runFleet(ctx, s.fleet) },
		func(ctx *runCtx, out *outcome, s specs, small bool) { serveLadder(ctx, out, s.fleet, small) }},
	{"serve_prefill_burst",
		func(ctx *runCtx, s specs) *outcome { return runPrefill(ctx, s.prefill) },
		func(ctx *runCtx, out *outcome, s specs, small bool) { serveLadder(ctx, out, s.prefill, small) }},
}

// execute runs one workload once: the workload itself and, traced and
// only if every check held, its ladder. small selects the smoke-test
// kernel sizes.
func (w workload) execute(ctx *runCtx, s specs, small bool) *outcome {
	if ctx.trace {
		ctx.tr = newTracer(w.name)
	}
	out := w.run(ctx, s)
	if ctx.trace && len(out.problems) == 0 {
		w.ladder(ctx, out, s, small)
	}
	return out
}

// metricDef mirrors one BENCHMARK.json metric entry.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the run for people, then the one-line JSON the driver
// reads. It returns false when a check tripped or a declared metric is
// missing or undeclared.
func emit(w workload, out *outcome, defs []metricDef, values map[string]float64, ctx *runCtx) bool {
	fmt.Printf("workload %s seed %d seconds %g trace %v GOMAXPROCS %d nproc %d %s\n",
		w.name, ctx.seed, ctx.seconds, ctx.trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	for _, l := range out.lines {
		fmt.Println(l)
	}
	fmt.Printf("ops_attempted %d ops_failed %d failed_share %.6f digest %s\n",
		out.attempted, out.failed, float64(out.failed)/float64(max(out.attempted, 1)), out.digest)

	res := result{Attempted: max(out.attempted, 1), Failed: out.failed, Metrics: map[string]metricValue{}}
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.Name] = true
		v := values[d.Name]
		res.Metrics[d.Name] = metricValue{v, d.Unit}
		fmt.Printf("%-36s %16.6g %s\n", d.Name, v, d.Unit)
	}
	var undeclared []string
	for name := range values {
		if !declared[name] {
			undeclared = append(undeclared, name)
		}
	}
	sort.Strings(undeclared)
	if len(undeclared) > 0 {
		out.fail("metrics emitted but not in BENCHMARK.json: %s", strings.Join(undeclared, ", "))
	}
	for _, p := range out.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	res.Correct = len(out.problems) == 0
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	return res.Correct
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run; empty runs the self-check over all of them")
		seed    = flag.Uint64("seed", 1, "draws corpus, weights, prompt tokens, sampling and crash victims (2 is the held-out seed)")
		seconds = flag.Float64("seconds", 0, "host seconds the timed part keeps sampling for (default: BENCHMARK.json run_seconds)")
		trace   = flag.Int("trace", 0, "1: traced run — per-layer metrics, ladder, benchmark/out/trace-<workload>.json")
		repeat  = flag.Int("repeat", 2, "self-check: run the whole set this many times; sim metrics must agree exactly, host metrics within their bounds")
		calib   = flag.Bool("calibrate", false, "print the serving workloads' calibration record (unloaded p50s, saturation goodput) and exit")
	)
	flag.Parse()
	man, err := readManifest("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if *seconds == 0 {
		*seconds = float64(man.RunSeconds)
	}
	if *name == "" && !*calib {
		os.Exit(selfCheck(man, *repeat, *seed, *seconds))
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	code := run(man, *name, &runCtx{seed: *seed, seconds: *seconds, trace: *trace != 0, tmp: tmp}, *calib)
	os.RemoveAll(tmp)
	os.Exit(code)
}

// run executes one workload (or the calibration) and returns the exit
// code.
func run(man *manifest, name string, ctx *runCtx, calib bool) int {
	if calib {
		calibrate(ctx, fullSpecs())
		return 0
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	defs, out := man.EndToEnd, w.execute(ctx, fullSpecs(), false)
	out.e2e["host_peak_rss_mb"] = peakRSSMB()
	values := out.e2e
	if ctx.trace {
		modelRungs(ctx, out)
		defs, values = man.PerLayer, out.layer
		path := filepath.Join(outDir, "trace-"+w.name+".json")
		if err := ctx.tr.write(path); err != nil {
			out.fail("writing %s: %v", path, err)
		}
		out.info("trace: %d spans in %s (open in ui.perfetto.dev or chrome://tracing)", len(ctx.tr.spans), path)
		self := ctx.tr.selfSeconds()
		names := make([]string, 0, len(self))
		for n := range self {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
		for _, n := range names[:min(len(names), 8)] {
			out.info("  self time %-36s %8.3f s", n, self[n])
		}
	}
	if !emit(*w, out, defs, values, ctx) {
		return 1
	}
	return 0
}

// outDir holds traces and the run's scratch files; it is git-ignored.
const outDir = "benchmark/out"
