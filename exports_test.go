package bagualu_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testSupport names the exported functions under internal/ that only
// tests call, each with a test in another package that needs it.
var testSupport = map[string]string{
	"bagualu/internal/autograd.NewGraph": "nn TestLinearMatchesAutograd: the autograd tape is the layers' gradient oracle",
	"bagualu/internal/tensor.ArgMaxRows": "train TestEvaluateImprovesWithTraining: held-out top-1 accuracy",
	"bagualu/internal/tensor.Dot":        "moe TestLocalMoEGradNumeric: the scalar loss of a numerical gradient check",
	"bagualu/internal/tensor.Norm2":      "moe TestZLossShrinksLogits",
	"bagualu/internal/half.RoundTrip32":  "mpi TestFP16WireValuesRoundTrip",
	"bagualu/internal/half.BRoundTrip32": "train TestBF16WeightsAreRepresentable",
}

// methodSupport names the exported methods under internal/ that no
// non-test selector names: by bare name the ones the runtime calls
// through an interface, by "import/path.Type" every method of a type
// that exists for tests, and by "import/path.Type.Method" the ones only
// tests call, each with the test that needs it.
var methodSupport = map[string]string{
	"Error": "the error interface: fmt and errors call it",

	"bagualu/internal/autograd.Graph":               "nn TestLinearMatchesAutograd and the autograd tests: the tape is the layers' gradient oracle",
	"bagualu/internal/autograd.Node.RequiresGrad":   "autograd TestNoGradThroughInputs",
	"bagualu/internal/data.Corpus.TextVocab":        "data TestImageTokensAppear",
	"bagualu/internal/data.Corpus.TokenHistogram":   "data TestZipfSkewControlsConcentration",
	"bagualu/internal/fault.Injector.CrashAt":       "fault TestCrashScheduleShape",
	"bagualu/internal/half.Float16.FastFloat32":     "half TestFastFloat32MatchesExact",
	"bagualu/internal/half.Float16.IsInf":           "half TestOverflowToInf",
	"bagualu/internal/half.Float16.IsNaN":           "half TestNaN",
	"bagualu/internal/health.Monitor.Score":         "health TestMonitorIgnoresTransientSpike",
	"bagualu/internal/metrics.Histogram.Mean":       "metrics TestHistogramQuantileBounds",
	"bagualu/internal/metrics.Histogram.Min":        "metrics TestHistogramQuantileBounds",
	"bagualu/internal/metrics.Histogram.Merge":      "metrics TestHistogramMergeEqualsCombined",
	"bagualu/internal/metrics.Histogram.Sum":        "metrics TestHistogramMergeEqualsCombined",
	"bagualu/internal/moe.DistMoE.ReplicatedParams": "moe TestDistMoEParamPartition",
	"bagualu/internal/moe.DistMoE.ShadowWorthwhile": "moe TestShadowWorthwhile",
	"bagualu/internal/moe.DistMoE.Shadows":          "moe TestSetShadowsValidation",
	"bagualu/internal/mpi.Comm.Deferred":            "parallel TestCrashRecoveryMatchesRestart: no deferred body outlives the step a failure abandons",
	"bagualu/internal/mpi.Comm.Send":                "mpi TestWireFaultDetection, and the fault and health tests' plain point-to-point traffic",
	"bagualu/internal/mpi.Comm.SendInts":            "mpi TestSendRecvIntsAndAnySource",
	"bagualu/internal/mpi.Comm.RecvInts":            "mpi TestSendRecvIntsAndAnySource",
	"bagualu/internal/mpi.Comm.Shrink":              "mpi TestShrinkAfterFailure",
	"bagualu/internal/mpi.WireStats.IntraBytes":     "mpi TestWireStatsTracksCodecGap",
	"bagualu/internal/parallel.Engine.ExpertParams": "parallel TestReplicasStayInSync",
	"bagualu/internal/parallel/pipe.Runner.Stashed": "parallel TestPipelineGeneratedEquivalence: no pass outlives its step",
	"bagualu/internal/simnet.Topology.Cost":         "simnet TestCostAlphaBetaStructure",
	"bagualu/internal/sunway.Machine.CoresPerNode":  "sunway TestFullMachineShape",
	"bagualu/internal/sunway.Machine.PeakFlopsFP32": "sunway TestPeakFlopsOrdering",
	"bagualu/internal/trace.Recorder.FormatSummary": "trace TestSummary",
	"bagualu/internal/trace.Recorder.Span":          "trace TestSpanConvertsSecondsToMicros",
	"bagualu/internal/train.LAMB.TrustRatio":        "train TestLAMBTrustRatioCapped",
}

// TestNoUncalledExports fails when an exported top-level function
// declared in a non-test file under internal/ is referenced by no
// non-test code: neither qualified from another package of the module
// (benchmark/, cmd/, examples/ and the facade count) nor unqualified
// from its own. An exported method is matched by name: some non-test
// selector anywhere in the module must name it.
func TestNoUncalledExports(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // non-test files by import path
	names := map[string]string{}      // package name by import path
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return err
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ip := path.Join("bagualu", filepath.ToSlash(filepath.Dir(p)))
		files[ip] = append(files[ip], f)
		names[ip] = f.Name.Name
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]token.Pos{} // by "import/path.Name"
	methods := map[string]token.Pos{}  // by "import/path.Type.Method"
	r := refs{used: map[string]bool{}, selected: map[string]bool{}}
	for ip, pkgFiles := range files {
		r.pkg = ip
		for _, f := range pkgFiles {
			r.imports = map[string]string{}
			for _, is := range f.Imports {
				p, _ := strconv.Unquote(is.Path.Value)
				name := path.Base(p)
				if n, ok := names[p]; ok {
					name = n
				}
				if is.Name != nil {
					name = is.Name.Name
				}
				r.imports[name] = p
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					r.walk(d)
					continue
				}
				if fd.Name.IsExported() && strings.HasPrefix(ip, "bagualu/internal/") {
					if fd.Recv == nil {
						declared[ip+"."+fd.Name.Name] = fd.Pos()
					} else {
						methods[ip+"."+recvType(fd.Recv)+"."+fd.Name.Name] = fd.Pos()
					}
				}
				if fd.Recv != nil {
					r.walk(fd.Recv)
				}
				r.walk(fd.Type)
				if fd.Body != nil {
					r.walk(fd.Body)
				}
			}
		}
	}

	var bad []string
	for fn, pos := range declared {
		if !r.used[fn] && testSupport[fn] == "" {
			bad = append(bad, fmt.Sprintf("%s: %s has no caller outside tests", fset.Position(pos), fn))
		}
	}
	for fn := range testSupport {
		if _, ok := declared[fn]; !ok {
			bad = append(bad, fn+" is allowlisted but not declared")
		} else if r.used[fn] {
			bad = append(bad, fn+" is allowlisted but program code calls it")
		}
	}
	needed := map[string]bool{} // methodSupport entries some method needs
	for m, pos := range methods {
		typ := m[:strings.LastIndex(m, ".")]
		name := m[len(typ)+1:]
		if r.selected[name] {
			continue
		}
		if k := supportEntry(m, typ, name); k != "" {
			needed[k] = true
			continue
		}
		bad = append(bad, fmt.Sprintf("%s: method %s is named by no non-test selector", fset.Position(pos), m))
	}
	for k := range methodSupport {
		if !needed[k] {
			bad = append(bad, k+" is allowlisted but covers no method that program code leaves unnamed")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// recvType is the receiver's type name, pointer and type parameters
// stripped.
func recvType(recv *ast.FieldList) string {
	x := recv.List[0].Type
	if s, ok := x.(*ast.StarExpr); ok {
		x = s.X
	}
	switch t := x.(type) {
	case *ast.IndexExpr:
		x = t.X
	case *ast.IndexListExpr:
		x = t.X
	}
	return x.(*ast.Ident).Name
}

// supportEntry returns the methodSupport key covering method m of type
// typ called name — its own, its type's or its bare name's — or "".
func supportEntry(m, typ, name string) string {
	for _, k := range []string{m, typ, name} {
		if methodSupport[k] != "" {
			return k
		}
	}
	return ""
}

// refs collects the function references of one package's files: a
// pkg.Name through an import, or a bare identifier naming something
// of the package itself; and the right-hand side of every other
// selector, which may name a method.
type refs struct {
	pkg      string
	imports  map[string]string // local name -> import path
	used     map[string]bool   // "import/path.Name"
	selected map[string]bool   // selector names
}

func (r *refs) walk(n ast.Node) { ast.Inspect(n, r.visit) }

// visit skips the identifiers that name something other than a
// package-level function: selector right-hand sides, field names and
// struct-literal keys.
func (r *refs) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		if x, ok := n.X.(*ast.Ident); ok {
			if p, ok := r.imports[x.Name]; ok {
				r.used[p+"."+n.Sel.Name] = true
				return false
			}
		}
		r.selected[n.Sel.Name] = true
		r.walk(n.X)
		return false
	case *ast.Field:
		r.walk(n.Type)
		return false
	case *ast.KeyValueExpr:
		if _, ok := n.Key.(*ast.Ident); !ok {
			r.walk(n.Key)
		}
		r.walk(n.Value)
		return false
	case *ast.Ident:
		r.used[r.pkg+"."+n.Name] = true
	}
	return true
}
