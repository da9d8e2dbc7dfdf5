package siot_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite testdata/api.txt and testdata/examples/ instead of comparing")

// checkedPackage is one type-checked package of the repository: its
// non-test files and what go/types recorded about them.
type checkedPackage struct {
	*types.Package
	files []*ast.File
	info  *types.Info
}

// source is the one load of both modules that TestAPI, TestAPIConsumers
// and TestDeterminismRules share.
var source struct {
	once sync.Once
	fset *token.FileSet
	pkgs []checkedPackage
	err  error
}

// loadSource type-checks every package of the root module and of
// benchmark/ from source, once per test binary, importing their
// dependencies from the export data that `go list -export` leaves in the
// build cache. It skips t when go is not on PATH.
func loadSource(t *testing.T) (*token.FileSet, []checkedPackage) {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	source.once.Do(func() { source.fset, source.pkgs, source.err = typeCheck(goBin) })
	if source.err != nil {
		t.Fatal(source.err)
	}
	return source.fset, source.pkgs
}

// typeCheck does loadSource's work, returning its failure so that every
// test reading the load reports it.
func typeCheck(goBin string) (*token.FileSet, []checkedPackage, error) {
	exports := map[string]string{} // import path → export data file
	var repo []listedPackage
	for _, dir := range []string{".", "benchmark"} {
		listed, err := goList(goBin, dir)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range listed {
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
	var pkgs []checkedPackage
	for _, p := range repo {
		// Read the directory here, so the test cache sees a file added to
		// or removed from it; the child go list's reads do not count.
		if _, err := os.ReadDir(p.Dir); err != nil {
			return nil, nil, err
		}
		c := checkedPackage{info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return nil, nil, err
			}
			c.files = append(c.files, f)
		}
		var err error
		if c.Package, err = conf.Check(p.ImportPath, fset, c.files, c.info); err != nil {
			return nil, nil, fmt.Errorf("type-checking %s: %v", p.ImportPath, err)
		}
		pkgs = append(pkgs, c)
	}
	return fset, pkgs, nil
}

// listedPackage is the part of `go list -json` output typeCheck reads.
type listedPackage struct {
	ImportPath, Dir, Export string
	GoFiles                 []string
}

// goList lists the packages of the module in dir and their dependencies,
// with the export data of each.
func goList(goBin, dir string) ([]listedPackage, error) {
	cmd := exec.Command(goBin, "list", "-export", "-deps", "-json=ImportPath,Dir,Export,GoFiles", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// TestAPI pins the exported surface of the root package and every internal/
// package to testdata/api.txt: one line per exported top-level function,
// type, constant and variable and per exported method of an exported type,
// with its type. A change to the surface shows as a diff of that file;
// `go test -run TestAPI . -update` rewrites it.
func TestAPI(t *testing.T) {
	_, pkgs := loadSource(t)
	var lines []string
	for _, p := range pkgs {
		if p.Path() == "siot" || strings.HasPrefix(p.Path(), "siot/internal/") {
			for _, l := range apiLines(p.Package) {
				lines = append(lines, p.Path()+": "+l)
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

// apiLines renders the exported top-level objects of pkg and the exported
// methods of its exported types, one line each. Types print relative to
// pkg; parameter names, unexported struct fields and constant values are
// left out: they are not part of the surface.
func apiLines(pkg *types.Package) []string {
	qual := func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Name()
	}
	var render func(types.Type) string
	signature := func(s *types.Signature) string {
		tuple := func(tup *types.Tuple, variadic bool) []string {
			var out []string
			for i := range tup.Len() {
				if t := tup.At(i).Type(); variadic && i == tup.Len()-1 {
					out = append(out, "..."+render(t.(*types.Slice).Elem()))
				} else {
					out = append(out, render(t))
				}
			}
			return out
		}
		out := "(" + strings.Join(tuple(s.Params(), s.Variadic()), ", ") + ")"
		switch results := tuple(s.Results(), false); len(results) {
		case 0:
		case 1:
			out += " " + results[0]
		default:
			out += " (" + strings.Join(results, ", ") + ")"
		}
		return out
	}
	render = func(t types.Type) string {
		switch t := t.(type) {
		case *types.Signature:
			return "func" + signature(t)
		case *types.Pointer:
			return "*" + render(t.Elem())
		case *types.Slice:
			return "[]" + render(t.Elem())
		case *types.Array:
			return fmt.Sprintf("[%d]%s", t.Len(), render(t.Elem()))
		case *types.Map:
			return "map[" + render(t.Key()) + "]" + render(t.Elem())
		case *types.Struct:
			var fields []string
			for f := range t.Fields() {
				switch {
				case !f.Exported():
				case f.Embedded():
					fields = append(fields, render(f.Type()))
				default:
					fields = append(fields, f.Name()+" "+render(f.Type()))
				}
			}
			return "struct{" + strings.Join(fields, "; ") + "}"
		case *types.Interface:
			var elems []string
			for e := range t.EmbeddedTypes() {
				elems = append(elems, render(e))
			}
			for m := range t.ExplicitMethods() {
				elems = append(elems, m.Name()+signature(m.Signature()))
			}
			return "interface{" + strings.Join(elems, "; ") + "}"
		}
		return types.TypeString(t, qual)
	}

	var out []string
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch obj := obj.(type) {
		case *types.Func:
			out = append(out, "func "+name+signature(obj.Signature()))
		case *types.Const:
			out = append(out, "const "+name+" "+render(obj.Type()))
		case *types.Var:
			out = append(out, "var "+name+" "+render(obj.Type()))
		case *types.TypeName:
			if alias, ok := obj.Type().(*types.Alias); ok {
				out = append(out, "type "+name+" = "+render(alias.Rhs()))
				continue
			}
			named := obj.Type().(*types.Named)
			out = append(out, "type "+name+" "+render(named.Underlying()))
			for m := range named.Methods() {
				if m.Exported() {
					out = append(out, "method ("+render(m.Signature().Recv().Type())+") "+m.Name()+signature(m.Signature()))
				}
			}
		}
	}
	return out
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
func TestAPIConsumers(t *testing.T) {
	fset, pkgs := loadSource(t)
	checked := map[string]types.Object{} // key → exported name of a checked package
	used := map[string]bool{}            // keys named by another package's non-test code
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			if obj.Pkg() != p.Package && topLevel(obj) {
				used[objKey(obj)] = true
			}
		}
		if !strings.HasPrefix(p.Path(), "siot/internal/") || p.Path() == "siot/internal/faultfs" {
			continue
		}
		for _, name := range p.Scope().Names() {
			if obj := p.Scope().Lookup(name); obj.Exported() {
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
	var fails []string
	for key, obj := range checked {
		if !pass[key] {
			fails = append(fails, fmt.Sprintf("%s: %s has no consumer outside its package: unexport it, delete it, or list it with a reason", position(fset, obj.Pos()), strings.TrimPrefix(key, "siot/internal/")))
		}
	}
	slices.Sort(fails)
	for _, f := range fails {
		t.Error(f)
	}
}

// topLevel reports whether obj is declared at package scope (not a method,
// field or local).
func topLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
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
	"task", "community", "graph",
}

// orderFree lists the functions of the deterministic packages that iterate
// a map in its random order, each with the reason that order cannot reach
// a result.
var orderFree = map[string]string{
	"(*core.EdgeMemo).Release": "returns every table to the pool; each give is independent of the others",
	"(*core.EdgeMemo).Reset":   "refreshes or releases each memo table on its own; no table reads another",
	"community.localMove":      "sums integer edge weights, exact in any order, and breaks gain ties by the smaller community id",
	"community.aggregate":      "sums integer edge weights, exact in any order, into per-community maps",
	"experiments.runFig12":     "sorts each model's counts into a map keyed by model name",
}

// TestDeterminismRules keeps wall clocks, unseeded or shared random streams
// and map order out of the deterministic packages. In their non-test files
// it fails on:
//   - an import of time or math/rand;
//   - a use of a package-level math/rand/v2 function other than the New*
//     constructors: each draws from the process-wide, randomly seeded source;
//   - a package-level *rand.Rand variable (a stream shared by every caller
//     draws in call order, not seed order);
//   - a range over a map, or a maps.Keys, maps.Values or maps.All sequence
//     not passed straight to slices.Sorted or slices.SortedFunc, in a
//     function orderFree does not list.
func TestDeterminismRules(t *testing.T) {
	fset, pkgs := loadSource(t)
	var fails []string
	report := func(pos token.Pos, format string, args ...any) {
		fails = append(fails, position(fset, pos)+": "+fmt.Sprintf(format, args...))
	}
	ranged := map[string]bool{} // functions that iterate a map
	for _, p := range pkgs {
		if !slices.Contains(deterministicPackages, strings.TrimPrefix(p.Path(), "siot/internal/")) {
			continue
		}
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok && topLevel(fn) && fn.Pkg().Path() == "math/rand/v2" && !strings.HasPrefix(fn.Name(), "New") {
				report(id.Pos(), "draws rand.%s from the process-wide source", fn.Name())
			}
		}
		for _, name := range p.Scope().Names() {
			if v, ok := p.Scope().Lookup(name).(*types.Var); ok && types.TypeString(types.Unalias(v.Type()), nil) == "*math/rand/v2.Rand" {
				report(v.Pos(), "package-level *rand.Rand variable %s", name)
			}
		}
		for _, f := range p.files {
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "time" || path == "math/rand" {
					report(imp.Pos(), "imports %s", path)
				}
			}
			for _, decl := range f.Decls {
				fn := "package scope"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					fn = strings.ReplaceAll(p.info.Defs[fd.Name].(*types.Func).FullName(), "siot/internal/", "")
				}
				sorted := map[ast.Expr]bool{} // maps.* calls passed straight to a sort
				unordered := func(pos token.Pos, what string) {
					ranged[fn] = true
					if _, ok := orderFree[fn]; !ok {
						report(pos, "%s %s: iterate slices.Sorted(maps.Keys(m)), or list the function in orderFree with the reason its order cannot reach a result", fn, what)
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.RangeStmt:
						if _, ok := p.info.TypeOf(n.X).Underlying().(*types.Map); ok {
							unordered(n.Pos(), "ranges over a map")
						}
					case *ast.CallExpr:
						switch name := callee(p.info, n); name {
						case "slices.Sorted", "slices.SortedFunc":
							sorted[ast.Unparen(n.Args[0])] = true
						case "maps.Keys", "maps.Values", "maps.All":
							if !sorted[n] {
								unordered(n.Pos(), "iterates "+name+" unsorted")
							}
						}
					}
					return true
				})
			}
		}
	}
	for fn, reason := range orderFree {
		if !ranged[fn] {
			t.Errorf("orderFree lists %s (%s), which iterates no map: drop it from the list", fn, reason)
		}
	}
	slices.Sort(fails)
	for _, f := range fails {
		t.Error(f)
	}
}

// fusedOp matches an instruction line of `go build -gcflags=-S` output
// whose opcode is a fused multiply-add: FMADDD, FMSUBD, FNMADDD or FNMSUBD
// on arm64 and riscv64, FMADD, FMSUB, FNMADD or FNMSUB on ppc64le and
// s390x, and their single-precision forms. It captures the source position
// and the opcode.
var fusedOp = regexp.MustCompile(`^\s+0x[0-9a-f]+ \d+ \(([^)]+)\)\s+(FN?M(?:ADD|SUB)[DS]?)\s`)

// TestNoFusedFloat keeps the deterministic packages bit-exact on every
// architecture. The Go spec lets a compiler fuse x*y + z into one
// multiply-add, which rounds once where the separate operations round
// twice. amd64 never fuses, but arm64, ppc64le, s390x and riscv64 do, so a
// golden or a journal written on amd64 would not reproduce there. An
// explicit float64(x*y) rounds the product and forbids the fusion. The
// test cross-compiles deterministicPackages, and the siot/ packages they
// import, with -S for each of those architectures and fails on every fused
// opcode, naming its line and function.
func TestNoFusedFloat(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiles the deterministic packages for four architectures")
	}
	// loadSource parses every source file in this process, so the test
	// cache sees an edit; the child go builds' reads do not count.
	loadSource(t)
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	args := []string{"build", "-gcflags=siot/...=-S"}
	for _, p := range deterministicPackages {
		args = append(args, "siot/internal/"+p)
	}
	for _, arch := range []string{"arm64", "ppc64le", "s390x", "riscv64"} {
		t.Run(arch, func(t *testing.T) {
			t.Parallel()
			cmd := exec.Command(goBin, args...)
			cmd.Env = append(os.Environ(), "GOOS=linux", "GOARCH="+arch, "CGO_ENABLED=0", "GOTOOLCHAIN=local", "GOWORK=off")
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("go %s for %s: %v\n%s", strings.Join(args, " "), arch, err, out)
			}
			fn, seen := "", map[string]bool{} // an inlined site repeats in its caller
			for _, line := range strings.Split(string(out), "\n") {
				if name, _, ok := strings.Cut(line, " STEXT "); ok && !strings.HasPrefix(line, "\t") {
					fn = name
				} else if m := fusedOp.FindStringSubmatch(line); m != nil {
					if msg := fmt.Sprintf("%s: %s fuses a multiply-add (%s): round the product with float64(…)", relative(m[1]), fn, m[2]); !seen[msg] {
						seen[msg] = true
						t.Error(msg)
					}
				}
			}
		})
	}
}

// callee names the package-level function that call calls, as
// "import/path.Name", or returns "".
func callee(info *types.Info, call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	}
	if fn, ok := info.Uses[id].(*types.Func); ok && topLevel(fn) {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return ""
}

// position renders pos with its file relative to the repository root.
func position(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	p.Filename = relative(p.Filename)
	return p.String()
}

// relative returns path relative to the repository root, where the tests
// run, or path itself when it has no such form.
func relative(path string) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, path); err == nil {
			return rel
		}
	}
	return path
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
