package siot_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite testdata/api.txt and testdata/examples/ instead of comparing")

// TestAPI pins the exported surface of the root package and every internal/
// package to testdata/api.txt: one line per exported top-level function,
// method, type, constant and variable, with its signature. A change to the
// surface shows as a diff of that file; `go test -run TestAPI . -update`
// rewrites it.
func TestAPI(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("internal", "*"))
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, dir := range append([]string{"."}, dirs...) {
		pkg := "siot"
		if dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		fset, files := parseNonTest(t, dir)
		for _, f := range files {
			for _, l := range apiLines(fset, f) {
				lines = append(lines, pkg+": "+l)
			}
		}
	}
	slices.Sort(lines)
	got := strings.Join(lines, "\n") + "\n"
	const golden = "testdata/api.txt"
	if *updateAPI {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for _, l := range wantLines {
		if !slices.Contains(lines, l) {
			t.Errorf("removed: %s", l)
		}
	}
	for _, l := range lines {
		if !slices.Contains(wantLines, l) {
			t.Errorf("added:   %s", l)
		}
	}
	t.Errorf("exported surface differs from %s; run with -update if the change is meant", golden)
}

// apiSupport lists the exported internal/ names that only tests use, each
// with the reason it stays exported.
var apiSupport = map[string]string{
	"siot/internal/benchnet.Net1M":         "the 1M-node network of BenchmarkSweep1M and the CI scale smoke",
	"siot/internal/benchnet.Population":    "builds the seeded populations of the root benchmarks",
	"siot/internal/benchnet.PopulationFor": "builds the 100k-node populations of the root benchmarks",
	"siot/internal/benchnet.Populate":      "the populate+seed half that BenchmarkSetup100k, BenchmarkSweep1M and the scale smoke time",
	"siot/internal/task.MustNew":           "builds literal weighted tasks in the tests of task, core and agent",
}

// TestAPIConsumers asks of every exported top-level name of an internal/
// package (faultfs, which is test support, aside) that something outside
// its package needs it. A name passes when
//   - non-test code of another package of this repository names it: the
//     root facade, cmd/, examples/ and benchmark/ count;
//   - it appears in the signature of a passing name: its parameters and
//     results, a type's underlying type, exported fields and exported
//     method signatures, a variable's or constant's type (transitively);
//   - it is an exported error variable, which callers match with errors.Is;
//   - apiSupport lists it with a reason.
//
// It type-checks every package of both modules from source, importing their
// dependencies from the export data that `go list -export` leaves in the
// build cache.
func TestAPIConsumers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks every package of the repository")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	exports := map[string]string{} // import path → export data file
	var repo []listedPackage
	for _, dir := range []string{".", "benchmark"} {
		for _, p := range goList(t, goBin, dir) {
			if _, dup := exports[p.ImportPath]; dup {
				continue
			}
			exports[p.ImportPath] = p.Export
			if p.ImportPath == "siot" || strings.HasPrefix(p.ImportPath, "siot/") {
				repo = append(repo, p)
			}
		}
	}
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})}
	checked := map[string]types.Object{} // key → exported name of a checked package
	used := map[string]bool{}            // keys named by another package's non-test code
	for _, p := range repo {
		// Read the directory here, so the test cache sees a file added to
		// or removed from it; the child go list's reads do not count.
		if _, err := os.ReadDir(p.Dir); err != nil {
			t.Fatal(err)
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		for _, obj := range info.Uses {
			if obj.Pkg() != nil && obj.Pkg().Path() != pkg.Path() && topLevel(obj) {
				used[objKey(obj)] = true
			}
		}
		if !strings.HasPrefix(pkg.Path(), "siot/internal/") || pkg.Path() == "siot/internal/faultfs" {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			if obj := pkg.Scope().Lookup(name); obj.Exported() {
				checked[objKey(obj)] = obj
			}
		}
	}

	// Close the passing set over signatures: a passing name's signature
	// passes every checked name it mentions.
	errorType := types.Universe.Lookup("error").Type()
	pass := map[string]bool{}
	var queue []types.Object
	mark := func(key string) {
		if obj, ok := checked[key]; ok && !pass[key] {
			pass[key] = true
			queue = append(queue, obj)
		}
	}
	for key, obj := range checked {
		_, listed := apiSupport[key]
		if v, ok := obj.(*types.Var); used[key] || listed || ok && types.Identical(v.Type(), errorType) {
			mark(key)
		}
	}
	for len(queue) > 0 {
		obj := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		walkSignature(obj.Type(), mark)
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			walkSignature(tn.Type().Underlying(), mark)
			named := tn.Type().(*types.Named)
			for i := range named.NumMethods() {
				if m := named.Method(i); m.Exported() {
					walkSignature(m.Type(), mark)
				}
			}
		}
	}

	for key, reason := range apiSupport {
		switch {
		case checked[key] == nil:
			t.Errorf("apiSupport lists %s (%s), which is not an exported name of a checked package", key, reason)
		case used[key]:
			t.Errorf("apiSupport lists %s, which non-test code of another package uses: drop it from the list", key)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var fails []string
	for key, obj := range checked {
		if !pass[key] {
			pos := fset.Position(obj.Pos())
			if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
				pos.Filename = rel
			}
			fails = append(fails, fmt.Sprintf("%s: %s has no consumer outside its package: unexport it, delete it, or list it with a reason", pos, strings.TrimPrefix(key, "siot/internal/")))
		}
	}
	slices.Sort(fails)
	for _, f := range fails {
		t.Error(f)
	}
}

// listedPackage is the part of `go list -json` output TestAPIConsumers reads.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
}

// goList lists the packages of the module in dir and their dependencies,
// with the export data of each.
func goList(t *testing.T, goBin, dir string) []listedPackage {
	t.Helper()
	cmd := exec.Command(goBin, "list", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// topLevel reports whether obj is declared at package scope (not a method,
// field or local).
func topLevel(obj types.Object) bool {
	return obj.Parent() != nil && obj.Parent() == obj.Pkg().Scope()
}

// objKey names a top-level object by package path and name: the importer
// builds its own objects for a package, so objects of the same name from
// two type-checks are not equal.
func objKey(obj types.Object) string { return obj.Pkg().Path() + "." + obj.Name() }

// walkSignature calls mark for every named type that t mentions through
// what a caller sees: element, parameter and result types, exported struct
// fields (embedded ones included), interface methods and type arguments.
// It stops at named types: mark queues their own signatures.
func walkSignature(t types.Type, mark func(key string)) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if t.Obj().Pkg() != nil {
			mark(objKey(t.Obj()))
		}
		for i := range t.TypeArgs().Len() {
			walkSignature(t.TypeArgs().At(i), mark)
		}
	case *types.Pointer:
		walkSignature(t.Elem(), mark)
	case *types.Slice:
		walkSignature(t.Elem(), mark)
	case *types.Array:
		walkSignature(t.Elem(), mark)
	case *types.Chan:
		walkSignature(t.Elem(), mark)
	case *types.Map:
		walkSignature(t.Key(), mark)
		walkSignature(t.Elem(), mark)
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := range tup.Len() {
				walkSignature(tup.At(i).Type(), mark)
			}
		}
	case *types.Struct:
		for i := range t.NumFields() {
			if f := t.Field(i); f.Exported() {
				walkSignature(f.Type(), mark)
			}
		}
	case *types.Interface:
		for i := range t.NumEmbeddeds() {
			walkSignature(t.EmbeddedType(i), mark)
		}
		for i := range t.NumExplicitMethods() {
			if m := t.ExplicitMethod(i); m.Exported() {
				walkSignature(m.Type(), mark)
			}
		}
	}
}

// apiLines renders the exported top-level declarations of f, one line each.
// Parameter names, comments, unexported struct fields and the values of
// variables and typed constants are left out: they are not part of the
// surface.
func apiLines(fset *token.FileSet, f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				out = append(out, "func "+d.Name.Name+signature(fset, d.Type))
				continue
			}
			recv := nodeString(fset, d.Recv.List[0].Type)
			out = append(out, "method ("+recv+") "+d.Name.Name+signature(fset, d.Type))
		case *ast.GenDecl:
			var typ ast.Expr // a const group repeats the last explicit type
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					if !sp.Name.IsExported() {
						continue
					}
					eq := " "
					if sp.Assign.IsValid() {
						eq = " = "
					}
					out = append(out, "type "+sp.Name.Name+eq+typeString(fset, sp.Type))
				case *ast.ValueSpec:
					if sp.Type != nil || len(sp.Values) > 0 {
						typ = sp.Type
					}
					for i, name := range sp.Names {
						if !name.IsExported() {
							continue
						}
						l := d.Tok.String() + " " + name.Name
						switch {
						case typ != nil:
							l += " " + nodeString(fset, typ)
						case d.Tok == token.CONST && i < len(sp.Values):
							l += " = " + nodeString(fset, sp.Values[i])
						}
						out = append(out, l)
					}
				}
			}
		}
	}
	return out
}

// signature renders a function type without its parameter names.
func signature(fset *token.FileSet, ft *ast.FuncType) string {
	list := func(fl *ast.FieldList) []string {
		var out []string
		if fl == nil {
			return nil
		}
		for _, field := range fl.List {
			for range max(1, len(field.Names)) {
				out = append(out, nodeString(fset, field.Type))
			}
		}
		return out
	}
	s := "(" + strings.Join(list(ft.Params), ", ") + ")"
	switch res := list(ft.Results); len(res) {
	case 0:
	case 1:
		s += " " + res[0]
	default:
		s += " (" + strings.Join(res, ", ") + ")"
	}
	return s
}

// typeString renders a type on one line: a struct lists only its exported
// fields, an interface its methods.
func typeString(fset *token.FileSet, e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StructType:
		var fields []string
		for _, field := range t.Fields.List {
			typ := nodeString(fset, field.Type)
			if len(field.Names) == 0 { // embedded
				if ast.IsExported(strings.TrimLeft(typ[strings.LastIndex(typ, ".")+1:], "*")) {
					fields = append(fields, typ)
				}
				continue
			}
			for _, name := range field.Names {
				if name.IsExported() {
					fields = append(fields, name.Name+" "+typ)
				}
			}
		}
		return "struct{" + strings.Join(fields, "; ") + "}"
	case *ast.InterfaceType:
		var methods []string
		for _, m := range t.Methods.List {
			if ft, ok := m.Type.(*ast.FuncType); ok {
				methods = append(methods, m.Names[0].Name+signature(fset, ft))
				continue
			}
			methods = append(methods, nodeString(fset, m.Type))
		}
		return "interface{" + strings.Join(methods, "; ") + "}"
	}
	return nodeString(fset, e)
}

// nodeString prints an AST node with its whitespace runs collapsed to
// single spaces, so a multi-line literal or type fits on one line.
func nodeString(fset *token.FileSet, n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, n); err != nil {
		panic(err)
	}
	return strings.Join(strings.Fields(buf.String()), " ")
}

// TestBenchmarkModule vets and tests the benchmark module, which the
// repository's own `go test ./...` does not enter. benchmark/run.sh builds
// it before every run and exits 1 when a workload returns an error or fails
// its correctness checks; the module's TestSmoke runs every workload on
// small worlds and checks every result, so both kinds of break surface
// here instead of as a failed benchmark run.
func TestBenchmarkModule(t *testing.T) {
	if testing.Short() {
		t.Skip("vets and tests a second module")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	// The test cache keys on the files this process opens, not on what the
	// child go commands read: open the module's sources here, so an edit
	// under benchmark/ reruns the test instead of replaying a cached pass.
	paths, err := filepath.Glob(filepath.Join("benchmark", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range append(paths, filepath.Join("benchmark", "go.mod")) {
		if _, err := os.ReadFile(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "./..."}} {
		cmd := exec.Command(goBin, args...)
		cmd.Dir = "benchmark"
		cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOWORK=off")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in benchmark/: %v\n%s", strings.Join(args, " "), err, out)
		}
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

// TestExamplesOutput runs every program under examples/ and compares its
// stdout byte for byte with testdata/examples/<name>.txt; `go test -run
// TestExamplesOutput . -update` rewrites the files. No figure golden covers
// the examples, and energyaware's energy line is the only output that reads
// the testbed's per-device energy accounting.
func TestExamplesOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every example")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	dirs, err := filepath.Glob(filepath.Join("examples", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		name := filepath.Base(dir)
		t.Run(name, func(t *testing.T) {
			// Open the sources here, so an edit to an example reruns the
			// test instead of replaying a cached pass.
			srcs, err := filepath.Glob(filepath.Join(dir, "*.go"))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range srcs {
				if _, err := os.ReadFile(p); err != nil {
					t.Fatal(err)
				}
			}
			cmd := exec.Command(goBin, "run", "./"+filepath.ToSlash(dir))
			cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOWORK=off")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("go run ./%s: %v\n%s", dir, err, stderr.Bytes())
			}
			golden := filepath.Join("testdata", "examples", name+".txt")
			if *updateAPI {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("stdout of ./%s differs from %s; run with -update if the change is meant\ngot:\n%s", dir, golden, got)
			}
		})
	}
}
