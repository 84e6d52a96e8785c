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

// TestNoUncalledExports fails when an exported top-level function
// declared in a non-test file under internal/ is referenced by no
// non-test code: neither qualified from another package of the module
// (benchmark/, cmd/, examples/ and the facade count) nor unqualified
// from its own. Methods are not scanned.
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
	r := refs{used: map[string]bool{}}
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
				if fd.Recv == nil && fd.Name.IsExported() && strings.HasPrefix(ip, "bagualu/internal/") {
					declared[ip+"."+fd.Name.Name] = fd.Pos()
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
	sort.Strings(bad)
	for _, b := range bad {
		t.Error(b)
	}
}

// refs collects the function references of one package's files: a
// pkg.Name through an import, or a bare identifier naming something
// of the package itself.
type refs struct {
	pkg     string
	imports map[string]string // local name -> import path
	used    map[string]bool   // "import/path.Name"
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
