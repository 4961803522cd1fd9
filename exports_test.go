package registrarsec

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed lists checked objects that no production code uses, and
// fields it never sets, that stay in production, each with the reason. Keys
// are package-qualified (pkg.Name, pkg.Type.Method for a method, pkg.Type{F}
// for a field, pkg.Type{} for every field of the struct); a command's
// package is its directory (cmd/regsec-scan.name).
var testOnlyAllowed = map[string]string{
	"dnsserver.AXFRClient.Transfer":           "AXFR client half of the zone transfer dnsserver serves",
	"operator.Operator.DisableDNSSEC":         "operator behaviour model (signing switched off) only its tests drive; zone.Unsign would go with it",
	"operator.Operator.BootstrapViaRegistrar": "operator half of the DS bootstrap draft registrar agents serve (RegistrarBootstrapAPI)",
	"tldsim.BuildCustom":                      "hand-set world for the root BenchmarkAblationCDS and tldsim tests",
	"dnsserver.Authoritative.DeferredCount":   "counts unbuilt child zones without building one; tldsim's sweep test reads it",
	"zone.Zone.PlannedSigs":                   "counts unproduced signatures without producing one; dnsserver and tldsim tests read it",
	"dataset.SpillWriter.WriteSectionTo":      "a swept day as one self-contained section, the form checkpoint chunks and appended sections take; dsweep, apiserv and command tests build archives of it",
	"registrarsec.Study.Measure":              "library entry point README.md documents (Quickstart, \"As a library\")",
	"registrarsec.Figure4":                    "library entry point README.md documents (Quickstart, \"As a library\")",
	"registrarsec.WindowEnd":                  "library entry point README.md documents (Quickstart, \"As a library\")",
	"registrarsec.LongitudinalConfig{}":       "options of the library entry point README.md documents (Quickstart, \"As a library\")",
}

// allowEntry returns the allowlist entry that covers key: key itself or,
// for a field pkg.Type{F}, the entry pkg.Type{}.
func allowEntry(key string) (string, bool) {
	if _, ok := testOnlyAllowed[key]; ok {
		return key, true
	}
	if typ, _, isField := strings.Cut(key, "{"); isField {
		_, ok := testOnlyAllowed[typ+"{}"]
		return typ + "{}", ok
	}
	return "", false
}

// TestNoTestOnlyExports fails on an object of the root module's checked
// packages that no production code uses: what only tests use belongs beside
// those tests, and what nothing uses goes. It fails likewise on an option
// only tests set: an exported field of an exported struct that production
// code reads and never sets. It also fails on a format
// callback — an exported struct field or a function parameter of type
// func(string, ...any) — in the root module: diagnostics go to log/slog's
// default logger.
func TestNoTestOnlyExports(t *testing.T) {
	t.Parallel()
	unused, callbacks, err := checkModule(".", "securepki.org/registrarsec")
	if err != nil {
		t.Fatal(err)
	}
	if len(callbacks) > 0 {
		t.Errorf("%d format callbacks; log through log/slog's default logger instead:\n%s",
			len(callbacks), strings.Join(callbacks, "\n"))
	}
	matched := map[string]bool{}
	var hits []string
	for key, at := range unused {
		if entry, allowed := allowEntry(key); allowed {
			matched[entry] = true
		} else {
			hits = append(hits, at+" "+key)
		}
	}
	for key, reason := range testOnlyAllowed {
		if !matched[key] || reason == "" {
			t.Errorf("allowlist entry %s has no reason, names nothing checked or has a production user now: fix or delete it", key)
		}
	}
	sort.Strings(hits)
	if len(hits) > 0 {
		t.Errorf("%d objects no production code uses, or fields it never sets; delete them, move them beside their tests, or allowlist them with a reason:\n%s",
			len(hits), strings.Join(hits, "\n"))
	}
}

// guardFixture is a module, one "-- path --" line before each file. The
// guard must flag an exported helper only a test calls, a function nothing
// calls and a method whose only interface has no production user (an
// assertion is no use), a field production code reads that only a test
// sets, and each command's unused helper under its own directory's key; it
// must pass a String method, heap.Interface methods, a name only bench/
// uses, a field only bench/ sets, a field set through &x.F and a command's
// func main.
const guardFixture = `-- internal/p/p.go --
package p

import ("container/heap"; "fmt")

func HelperForTests() int { return 1 }
func unusedHelper()       {}

type Sizer interface{ Size() int }

var _ Sizer = Box{}

type Box struct{ n int }

func (b Box) Size() int      { return b.n }
func (b Box) String() string { return fmt.Sprint(b.n) }
func BenchOnly() Box         { return Box{} }

type ints []int

func (h ints) Len() int           { return len(h) }
func (h ints) Less(i, j int) bool { return h[i] < h[j] }
func (h ints) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *ints) Push(x any)        { *h = append(*h, x.(int)) }
func (h *ints) Pop() any          { x := (*h)[len(*h)-1]; *h = (*h)[:len(*h)-1]; return x }

func Min(xs ...int) int { h := ints(xs); heap.Init(&h); return heap.Pop(&h).(int) }

type Options struct{ TestSet, BenchSet, AddrSet int }

func Run(o *Options) int { fmt.Sscan("1", &o.AddrSet); return o.TestSet + o.BenchSet + o.AddrSet }
-- internal/p/p_test.go --
package p

func use(s Sizer) int { return s.Size() + HelperForTests() + Run(&Options{TestSet: 1}) }
-- bench/b.go --
package main

import ("fmt"; "example.org/m/internal/p")

func main() { fmt.Println(p.Min(3, 1, 2), p.BenchOnly(), p.Run(&p.Options{BenchSet: 1})) }
-- cmd/a/main.go --
package main

func main()   {}
func helper() {}
-- cmd/b/main.go --
package main

func main()   {}
func helper() {}
`

// TestExportGuardFixtures runs the guard over guardFixture.
func TestExportGuardFixtures(t *testing.T) {
	root := t.TempDir()
	for _, file := range strings.Split(guardFixture, "-- ")[1:] {
		name, src, _ := strings.Cut(file, " --\n")
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	unused, _, err := checkModule(root, "example.org/m")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := slices.Sorted(maps.Keys(unused)), "cmd/a.helper cmd/b.helper p.Box.Size p.HelperForTests p.Options{TestSet} p.unusedHelper"; strings.Join(got, " ") != want {
		t.Errorf("flagged %q, want %s", got, want)
	}
}

// srcPackage is one directory of non-test Go files.
type srcPackage struct {
	dir   string // slash-separated, relative to the module root
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// assertedSrc names, as values of interface type, interfaces the standard
// library finds by type assertion, so their methods count as used.
const assertedSrc = `package asserted

import ("fmt"; "io"; "math/rand")

var _ = []any{fmt.Stringer(nil), (interface{ Unwrap() error })(nil), (interface{ Is(error) bool })(nil),
	io.ByteReader(nil), io.WriterTo(nil), rand.Source64(nil)}
`

// checkModule type-checks every non-test package under root, bench/ and
// examples/ included, once and in one universe. It returns, by key with
// their positions, the objects of checked packages (see guarded) that no
// production code uses — package-level functions, types and methods, and
// exported consts and vars — the exported fields of their exported structs
// that production code reads and never sets (see fieldAccesses), and where
// format callbacks are declared. A
// use is a reference or selection, other than a function's call of itself; a
// method also counts as used when its receiver type implements a non-empty
// interface production code uses: the type of a value expression or a
// referenced variable, a parameter of a called function, or one assertedSrc
// names. The standard library comes from the export data one go list call
// reports.
func checkModule(root, module string) (unused map[string]string, callbacks []string, err error) {
	fset := token.NewFileSet()
	asserted, err := parser.ParseFile(fset, "asserted.go", assertedSrc, 0)
	if err != nil {
		return nil, nil, err
	}
	pkgs := map[string]*srcPackage{"asserted": {files: []*ast.File{asserted}}} // by import path
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		switch {
		case err != nil:
			return err
		case d.IsDir() && rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || rel == "bench/out"):
			return filepath.SkipDir // bench/out holds the benchmark's build cache and results
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		importPath := strings.TrimSuffix(module+"/"+dir, "/.")
		if pkgs[importPath] == nil {
			pkgs[importPath] = &srcPackage{dir: dir}
		}
		pkgs[importPath].files = append(pkgs[importPath].files, f)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	std, err := stdImporter(fset, pkgs)
	if err != nil {
		return nil, nil, err
	}
	// A package is checked when first imported, so in import order, and
	// every importer gets the same *types.Package.
	var conf types.Config
	check := func(path string) (*types.Package, error) {
		p := pkgs[path]
		if p == nil {
			return std.Import(path)
		}
		if p.pkg == nil {
			p.info = &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}
			pkg, err := conf.Check(path, fset, p.files, p.info)
			if err != nil {
				return nil, err
			}
			p.pkg = pkg
		}
		return p.pkg, nil
	}
	conf.Importer = importerFunc(check)
	for path, p := range pkgs {
		if _, err := check(path); err != nil {
			return nil, nil, err
		}
		for _, f := range p.files {
			if p.dir != "bench" && !strings.HasPrefix(p.dir, "bench/") {
				for _, pos := range formatCallbacks(f, p.info) {
					callbacks = append(callbacks, fset.Position(pos).String())
				}
			}
		}
	}

	used := map[types.Object]bool{}
	use := func(obj types.Object, at token.Pos) {
		if fn, ok := obj.(*types.Func); ok {
			if obj = fn.Origin(); fn.Origin().Scope() != nil && fn.Origin().Scope().Contains(at) {
				return // a recursive call
			}
		}
		used[obj] = true
	}
	ifaces := map[*types.Interface]bool{} // the interfaces production code uses
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	read, set := map[*types.Var]bool{}, map[*types.Var]bool{}
	for _, p := range pkgs {
		fieldAccesses(p, read, set)
		for id, obj := range p.info.Uses {
			use(obj, id.Pos())
			if v, ok := obj.(*types.Var); ok {
				addIface(v.Type())
			}
		}
		for sel, s := range p.info.Selections {
			use(s.Obj(), sel.Sel.Pos())
		}
		for e, tv := range p.info.Types {
			if !tv.IsValue() {
				continue
			}
			addIface(tv.Type)
			if call, ok := e.(*ast.CallExpr); ok {
				if sig, ok := p.info.Types[call.Fun].Type.(*types.Signature); ok {
					for i := range sig.Params().Len() {
						t := sig.Params().At(i).Type()
						if s, ok := t.(*types.Slice); ok && sig.Variadic() && i == sig.Params().Len()-1 {
							t = s.Elem()
						}
						addIface(t)
					}
				}
			}
		}
	}

	unused = map[string]string{}
	report := func(obj types.Object) {
		qual := obj.Pkg().Name()
		if qual == "main" { // every command is package main: key it by directory
			qual = strings.TrimPrefix(obj.Pkg().Path(), module+"/")
		}
		key := qual + "." + obj.Name()
		if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			recv := sig.Recv().Type()
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			key = qual + "." + recv.(*types.Named).Obj().Name() + "." + obj.Name()
			for it := range ifaces {
				if m, _, _ := types.LookupFieldOrMethod(it, false, obj.Pkg(), obj.Name()); m != nil && types.Implements(types.NewPointer(recv), it) {
					used[obj] = true
				}
			}
		}
		if !used[obj] {
			unused[key] = fset.Position(obj.Pos()).String()
		}
	}
	for _, p := range pkgs {
		if !guarded(p.dir) {
			continue
		}
		for _, name := range p.pkg.Scope().Names() {
			switch obj := p.pkg.Scope().Lookup(name).(type) {
			case *types.TypeName:
				report(obj)
				if n, ok := obj.Type().(*types.Named); ok && !obj.IsAlias() {
					for i := range n.NumMethods() {
						report(n.Method(i))
					}
				}
				if st, ok := obj.Type().Underlying().(*types.Struct); ok && obj.Exported() && !obj.IsAlias() {
					for i := range st.NumFields() {
						if f := st.Field(i); f.Exported() && read[f] && !set[f] {
							unused[p.pkg.Name()+"."+name+"{"+f.Name()+"}"] = fset.Position(f.Pos()).String()
						}
					}
				}
			case *types.Func:
				if p.pkg.Name() != "main" || name != "main" {
					report(obj)
				}
			default:
				if obj.Exported() {
					report(obj)
				}
			}
		}
	}
	return unused, callbacks, nil
}

// fieldAccesses marks in set the struct fields p's files set — as a
// composite-literal key or position, the target of an assignment or ++/--,
// or the operand of & — and in read every other field they select.
func fieldAccesses(p *srcPackage, read, set map[*types.Var]bool) {
	targets := map[*ast.SelectorExpr]bool{}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			targets[sel] = true
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					target(n.X)
				}
			case *ast.CompositeLit:
				t := p.info.TypeOf(n).Underlying()
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem().Underlying() // an element of []*T written {...}
				}
				st, ok := t.(*types.Struct)
				if !ok {
					return true
				}
				for i, elt := range n.Elts {
					f := st.Field(i)
					if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
						f = p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
					}
					set[f.Origin()] = true
				}
			}
			return true
		})
	}
	for sel, s := range p.info.Selections {
		if f, ok := s.Obj().(*types.Var); ok {
			if targets[sel] {
				set[f.Origin()] = true
			} else {
				read[f.Origin()] = true
			}
		}
	}
}

// stdImporter imports the standard-library packages that pkgs import from
// the export data one go list -export call reports.
func stdImporter(fset *token.FileSet, pkgs map[string]*srcPackage) (types.Importer, error) {
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}
	seen := map[string]bool{"unsafe": true}
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, spec := range f.Imports {
				if path, _ := strconv.Unquote(spec.Path.Value); pkgs[path] == nil && !seen[path] {
					seen[path] = true
					args = append(args, path)
				}
			}
		}
	}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, line := range strings.Split(string(bytes.TrimSpace(out)), "\n") {
		path, file, _ := strings.Cut(line, "\t")
		exports[path] = file
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	}), nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// guarded reports whether the package in dir (slash-separated, relative to
// the module root) is checked: production packages of the root module, the
// facade and the commands included, other than the benchmark, the examples,
// test support (dnstest, cmdtest, logtest, and archivetest and ecotest, the
// archive's bytes and the registry ecosystem as tests build them) and the
// reference engine.
func guarded(dir string) bool {
	for _, skip := range []string{"bench", "examples", "internal/dnstest", "internal/cmdtest", "internal/logtest", "internal/archivetest", "internal/ecotest", "internal/analysis"} {
		if dir == skip || strings.HasPrefix(dir, skip+"/") {
			return false
		}
	}
	return true
}

// formatCallbacks returns where f declares an exported struct field or a
// function parameter whose type is a func(string, ...any), with or without
// results.
func formatCallbacks(f *ast.File, info *types.Info) []token.Pos {
	isFormat := func(e ast.Expr) bool {
		sig, ok := info.TypeOf(e).Underlying().(*types.Signature)
		return ok && sig.Variadic() && sig.Params().Len() == 2 &&
			types.Identical(sig.Params().At(0).Type(), types.Typ[types.String]) &&
			types.Identical(sig.Params().At(1).Type(), types.NewSlice(types.Universe.Lookup("any").Type()))
	}
	var at []token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.StructType:
			for _, field := range n.Fields.List {
				for _, name := range field.Names {
					if name.IsExported() && isFormat(field.Type) {
						at = append(at, name.Pos())
					}
				}
			}
		case *ast.FuncType:
			for _, field := range n.Params.List {
				if isFormat(field.Type) {
					at = append(at, field.Pos())
				}
			}
		}
		return true
	})
	return at
}
