// Command bagualu is the single driver of the reproduction:
//
//	bagualu train [flags]            hybrid-parallel MoE pretraining on the simulated machine
//	bagualu plan  [flags]            deployment autotuner: search, validate, full-scale plan
//	bagualu exp <id>...|all|list     regenerate R-tables of EXPERIMENTS.md from the registry
//
// Every R-table has exactly one driver: its registry entry (exp.go).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"bagualu/internal/metrics"
	"bagualu/internal/mpi"
	"bagualu/internal/simnet"
	"bagualu/internal/sunway"
)

func main() { run(os.Args[1:], os.Stdout) }

// check ends the program on err, the one exit point: sweep bodies
// build tables, they do not thread error returns through every cell,
// and a rank goroutine that exits cannot leave its peers blocked.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bagualu:", err)
		os.Exit(1)
	}
}

// must is check for a call that also returns a value.
func must[T any](v T, err error) T {
	check(err)
	return v
}

func run(args []string, out io.Writer) {
	subcommands := map[string]func([]string, io.Writer){"train": runTrain, "plan": runPlan, "exp": runExp}
	if len(args) == 0 || subcommands[args[0]] == nil {
		check(errors.New("usage: bagualu train|plan|exp [flags] (see -h of each; `bagualu exp list` names the R-tables)"))
	}
	subcommands[args[0]](args[1:], out)
}

// The shared flag sets (machine, model, -seed, -csv) are declared here
// once. Each takes its defaults from the values its target holds at
// registration: the shape the subcommand or R-table was recorded at.

// machineFlags is the simulated-world flag set of plan and exp.
type machineFlags struct{ ranks, perSN, rpn int }

func (m *machineFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&m.ranks, "ranks", m.ranks, "world size (read by plan, R4 R8 R11 R12 R13 R17 R18, with the two flags below)")
	fs.IntVar(&m.perSN, "nodes-per-sn", m.perSN, "nodes per supernode")
	fs.IntVar(&m.rpn, "ranks-per-node", m.rpn, "ranks per node")
}

func (m machineFlags) topo() *simnet.Topology {
	_, t := topoFor(m.ranks, m.perSN, m.rpn)
	return t
}

// topoFor shapes the smallest test machine that holds ranks.
func topoFor(ranks, perSN, rpn int) (*sunway.Machine, *simnet.Topology) {
	nodes := (ranks + rpn - 1) / rpn
	machine := sunway.TestMachine((nodes+perSN-1)/perSN, perSN)
	return machine, simnet.New(machine, rpn)
}

// twoSupernodes spreads ranks over two supernodes at two ranks per
// node, so hybrid runs always cross the machine level.
func twoSupernodes(ranks int) (*sunway.Machine, *simnet.Topology) {
	machine := sunway.TestMachine(2, (ranks+3)/4)
	return machine, simnet.New(machine, 2)
}

// onWorld runs fn on every rank of a fresh world and returns the
// world for its clock and traffic counters.
func onWorld(ranks int, topo *simnet.Topology, fn func(c *mpi.Comm)) *mpi.World {
	w := mpi.NewWorld(ranks, topo)
	w.Run(fn)
	return w
}

// modelDims is the model-shape flag set of train and exp (read by
// R13 and R18; plan and R17 read -layers alone).
type modelDims struct{ vocab, dim, heads, layers, seq, hidden, experts, topk int }

func (m *modelDims) register(fs *flag.FlagSet) {
	fs.IntVar(&m.vocab, "vocab", m.vocab, "vocabulary size (model flags: read by train, R13 R18)")
	fs.IntVar(&m.dim, "dim", m.dim, "model width")
	fs.IntVar(&m.heads, "heads", m.heads, "attention heads")
	layersFlag(fs, &m.layers)
	fs.IntVar(&m.seq, "seq", m.seq, "sequence length / context window")
	fs.IntVar(&m.hidden, "ffn-hidden", m.hidden, "dense and expert FFN hidden width (train: 0 = 4 x dim)")
	fs.IntVar(&m.experts, "experts", m.experts, "experts per MoE layer")
	fs.IntVar(&m.topk, "topk", m.topk, "experts per token")
}

func layersFlag(fs *flag.FlagSet, p *int) {
	fs.IntVar(p, "layers", *p, "transformer blocks (also read by plan, R17: 0 = the search model's depth)")
}

func seedFlag(fs *flag.FlagSet, p *uint64) {
	fs.Uint64Var(p, "seed", *p, "seed (read by train, plan, R11 R12 R13 R17 R18 R19)")
}

func csvFlag(fs *flag.FlagSet, p *bool) {
	fs.BoolVar(p, "csv", false, "emit CSV instead of aligned tables")
}

// emit writes each table followed by a blank line.
func emit(out io.Writer, csv bool, tables []*metrics.Table) {
	for _, t := range tables {
		if csv {
			check(t.WriteCSV(out))
		} else {
			check(t.WriteText(out))
		}
		_, err := fmt.Fprintln(out)
		check(err)
	}
}
