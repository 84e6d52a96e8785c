package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"

	"bagualu/internal/metrics"
)

// options carries the exp flags into a registry entry. Everything a
// flag does not cover is the constant EXPERIMENTS.md records.
type options struct {
	machine machineFlags
	model   modelDims
	seed    uint64

	maxKB int // R4/R8 payload sweep ceiling

	// R13/R18 serving stream and admission control.
	requests, kvBudget, queueCap int
	sloWait                      float64
	ckptDir                      string
}

// experiment is one registry entry: the single driver of one
// `## <id>` section of EXPERIMENTS.md.
type experiment struct {
	id, title string
	// unstable is empty for a deterministic entry — two runs print the
	// same bytes, and testdata/<id>.csv pins them — and otherwise says
	// why the output moves between runs.
	unstable string
	run      func(o *options) []*metrics.Table
	// recorded holds the machine shape, model shape and seed the table
	// was recorded at: this entry's defaults for the shared flags. An
	// entry that leaves one zero does not read that flag.
	recorded options
}

const (
	hostTimed = "host-timed (wall clock on this host)"
	// EXPERIMENTS.md R11: a crash is detected where every survivor's
	// messages run out, whatever order the host ran the ranks in, and
	// both fault sweeps come out byte-identical run after run; but a
	// sender that a receiver declares failed for a faulted payload still
	// learns it at a moment the host scheduler picks, so they carry no
	// golden.
	detectionJitter = "no golden (a sender declared failed for a faulted payload learns it when the host scheduler says)"
)

var (
	commShape  = options{machine: machineFlags{32, 4, 2}}
	faultShape = options{machine: machineFlags{8, 4, 2}, seed: 42}
	serveShape = options{
		machine: machineFlags{16, 4, 2}, seed: 7,
		model: modelDims{vocab: 64, dim: 32, heads: 4, layers: 2, seq: 48, hidden: 64, experts: 16, topk: 2},
	}
)

var registry = []experiment{
	{id: "R1", title: "model configuration table", run: expR1},
	{id: "R2", title: "weak scaling, in-simulator", run: expR2},
	{id: "R2-proj", title: "weak scaling projected to 96,000 nodes", run: expR2proj},
	{id: "R3", title: "strong scaling", run: expR3},
	{id: "R4", title: "all-to-all: algorithms, wire codec + overlap, rank scaling", run: expR4, recorded: commShape},
	{id: "R5", title: "mixed-precision convergence", run: expR5},
	{id: "R6", title: "expert load balance", run: expR6},
	{id: "R6b", title: "expert migration and shadowing", run: expR6b},
	{id: "R7", title: "full-machine sustained performance", run: expR7},
	{id: "R7b", title: "flat vs hierarchical all-to-all at full scale", run: expR7b},
	{id: "R8", title: "all-reduce algorithms", run: expR8, recorded: commShape},
	{id: "R9", title: "MoE phase wall-time breakdown", unstable: hostTimed, run: expR9},
	{id: "R10", title: "checkpoint save+load throughput", unstable: hostTimed, run: expR10},
	{id: "R11", title: "goodput vs checkpoint interval x MTBF", unstable: detectionJitter, run: expR11, recorded: faultShape},
	{id: "R12", title: "throughput vs drop-prob x escalation policy", unstable: detectionJitter, run: expR12, recorded: faultShape},
	{id: "R13", title: "serving throughput and latency vs load x batching", run: expR13, recorded: serveShape},
	{id: "R14a", title: "grouped vs looped expert GEMM", unstable: hostTimed, run: expR14a},
	{id: "R14b", title: "routing discipline vs corpus skew", run: expR14b},
	{id: "R15", title: "max trainable parameters per node", run: expR15},
	{id: "R16", title: "ZeRO sync traffic and optimizer-state footprint", run: expR16},
	{id: "R17", title: "deployment autotuning", run: expR17, recorded: planSearch},
	{id: "R18", title: "serving fleet goodput under replica faults", run: expR18, recorded: serveShape},
	{id: "R19", title: "pipeline folding vs flat MoDa across depth", run: expR19, recorded: options{seed: 42}},
	{id: "R20", title: "ablations, step cost: recompute, Adam vs LAMB", unstable: hostTimed, run: expR20},
	{id: "R20-loss", title: "ablations, final loss: Adam vs LAMB, learned vs random routing", run: expR20loss},
}

// expFlags declares the exp flags over o, whose shared fields hold the
// entry's recorded values and so become the defaults.
func expFlags(o *options, csv *bool) *flag.FlagSet {
	fs := flag.NewFlagSet("bagualu exp", flag.ExitOnError)
	o.machine.register(fs)
	o.model.register(fs)
	seedFlag(fs, &o.seed)
	csvFlag(fs, csv)
	fs.IntVar(&o.maxKB, "max-kb", 4096, "R4/R8: largest per-rank payload in KiB")
	fs.IntVar(&o.requests, "requests", 96, "R13/R18: requests in the synthetic stream")
	fs.IntVar(&o.kvBudget, "kv-budget", 0, "R13/R18: max in-flight KV tokens per rank (0 = unlimited; the fleet caps at 64)")
	fs.IntVar(&o.queueCap, "queue-cap", 0, "R13: admission queue bound (0 = unlimited)")
	fs.Float64Var(&o.sloWait, "slo-wait", 0, "R13: admission deadline in seconds (0 = none)")
	fs.StringVar(&o.ckptDir, "ckpt", "", "R13/R18: serve weights restored from this sharded checkpoint dir (pass the model flags it was trained with, and a -ranks that divides its -experts)")
	return fs
}

// expList is `exp list`: the registry as a table.
func expList(*options) []*metrics.Table {
	t := metrics.NewTable("", "id", "tables", "output")
	for _, e := range registry {
		kind := "deterministic"
		if e.unstable != "" {
			kind = e.unstable
		}
		t.AddRow(e.id, e.title, kind)
	}
	return []*metrics.Table{t}
}

// runExp is `bagualu exp <id>... | all | list [flags]`. Ids come
// first; the flags after them apply to every id, each parsed over
// that entry's recorded defaults (so `exp R4 -h` shows R4's).
func runExp(args []string, out io.Writer) {
	n := 0
	for n < len(args) && !strings.HasPrefix(args[n], "-") {
		n++
	}
	ids, flags := args[:n], args[n:]
	var todo []experiment
	switch {
	case len(ids) == 0:
		expFlags(&options{}, new(bool)).Parse(flags) // -h lists the flags
		check(errors.New("usage: bagualu exp <id>... | all | list [flags]"))
	case len(ids) == 1 && ids[0] == "list":
		todo = []experiment{{run: expList}}
	case len(ids) == 1 && ids[0] == "all":
		todo = registry
	default:
		for _, id := range ids {
			i := slices.IndexFunc(registry, func(e experiment) bool { return e.id == id })
			if i < 0 {
				check(fmt.Errorf("exp: unknown id %q (`bagualu exp list` names them)", id))
			}
			todo = append(todo, registry[i])
		}
	}
	for _, e := range todo {
		o, csv := e.recorded, false
		fs := expFlags(&o, &csv)
		fs.Parse(flags)
		if fs.NArg() > 0 {
			check(fmt.Errorf("exp: ids come before the flags, found %q after them", fs.Args()))
		}
		emit(out, csv, e.run(&o))
	}
}
