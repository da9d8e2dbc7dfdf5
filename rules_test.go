package siot_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestBenchmarkModuleVets builds and vets the benchmark module, which the
// repository's own `go test ./...` does not enter. benchmark/run.sh builds
// it before every run, so an identifier it uses that no longer compiles
// would otherwise surface only as a failed benchmark run.
func TestBenchmarkModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("vets a second module")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "benchmark"
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}

// deterministicPackages are the packages whose results must follow from
// their seeds alone: every figure, golden and replay depends on it.
var deterministicPackages = []string{
	"core", "sim", "experiments", "adversary", "socialgen", "zigbee", "agent", "env",
}

// globalDraws are the math/rand/v2 functions that draw from the
// process-wide, randomly seeded source.
var globalDraws = map[string]bool{
	"ExpFloat64": true, "Float32": true, "Float64": true, "Int": true,
	"Int32": true, "Int32N": true, "Int64": true, "Int64N": true, "IntN": true,
	"N": true, "NormFloat64": true, "Perm": true, "Shuffle": true,
	"Uint": true, "Uint32": true, "Uint32N": true, "Uint64": true,
	"Uint64N": true, "UintN": true,
}

// TestDeterminismRules keeps wall clocks and unseeded or shared random
// streams out of the deterministic packages. It parses their non-test
// files and fails on:
//   - an import of time or math/rand;
//   - a call of a package-level math/rand/v2 draw;
//   - a package-level *rand.Rand variable, declared with that type or
//     initialized by rand.New or an internal/rng constructor (a stream
//     shared by every caller draws in call order, not seed order).
func TestDeterminismRules(t *testing.T) {
	ctors := map[string]map[string]bool{
		"math/rand/v2":      {"New": true},
		"siot/internal/rng": randConstructors(t),
	}
	for _, pkg := range deterministicPackages {
		fset, files := parseNonTest(t, filepath.Join("internal", pkg))
		for _, f := range files {
			for _, v := range determinismViolations(fset, f, ctors) {
				t.Error(v)
			}
		}
	}
}

// parseNonTest parses the non-test Go files of dir.
func parseNonTest(t *testing.T, dir string) (*token.FileSet, []*ast.File) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("%s: no Go files (%v)", dir, err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return fset, files
}

// determinismViolations reports each rule f breaks.
func determinismViolations(fset *token.FileSet, f *ast.File, ctors map[string]map[string]bool) []string {
	var out []string
	report := func(n ast.Node, format string, args ...any) {
		out = append(out, fset.Position(n.Pos()).String()+": "+fmt.Sprintf(format, args...))
	}
	names := map[string]string{} // local import name → import path
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		if p == "time" || p == "math/rand" {
			report(imp, "imports %s", p)
		}
		name := p[strings.LastIndex(p, "/")+1:]
		if p == "math/rand/v2" {
			name = "rand"
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		names[name] = p
	}
	// pkgMember resolves a selector on an imported package to its import
	// path and member name.
	pkgMember := func(e ast.Expr) (string, string) {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return "", ""
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok || id.Obj != nil { // a local name, not a package
			return "", ""
		}
		return names[id.Name], sel.Sel.Name
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if p, fn := pkgMember(call.Fun); p == "math/rand/v2" && globalDraws[fn] {
				report(call, "draws rand.%s from the process-wide source", fn)
			}
		}
		return true
	})
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.VAR {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			if star, ok := vs.Type.(*ast.StarExpr); ok {
				if p, typ := pkgMember(star.X); p == "math/rand/v2" && typ == "Rand" {
					report(vs, "package-level *rand.Rand variable %s", vs.Names[0].Name)
					continue
				}
			}
			for i, v := range vs.Values {
				if call, ok := v.(*ast.CallExpr); ok {
					if p, fn := pkgMember(call.Fun); ctors[p][fn] {
						report(vs, "package-level *rand.Rand variable %s", vs.Names[i].Name)
					}
				}
			}
		}
	}
	return out
}

// randConstructors lists the top-level functions of internal/rng that
// return a *rand.Rand.
func randConstructors(t *testing.T) map[string]bool {
	_, files := parseNonTest(t, filepath.Join("internal", "rng"))
	out := map[string]bool{}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Type.Results == nil {
				continue
			}
			for _, res := range fd.Type.Results.List {
				if star, ok := res.Type.(*ast.StarExpr); ok {
					if sel, ok := star.X.(*ast.SelectorExpr); ok && sel.Sel.Name == "Rand" {
						out[fd.Name.Name] = true
					}
				}
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("internal/rng: no function returns a *rand.Rand")
	}
	return out
}
