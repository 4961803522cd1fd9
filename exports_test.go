package registrarsec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyAllowed lists exported names that no production code names but
// that stay in production, each with the reason. Keys are package-qualified
// (pkg.Name, or pkg.Type.Method for a method).
var testOnlyAllowed = map[string]string{
	"epp.Dial":                                 "EPP client half of the protocol regsec-epp serves",
	"epp.Client.CreateDomain":                  "EPP client half of the protocol regsec-epp serves",
	"epp.Client.UpdateNS":                      "EPP client half of the protocol regsec-epp serves",
	"epp.Client.UpdateDS":                      "EPP client half of the protocol regsec-epp serves",
	"epp.Client.DeleteDomain":                  "EPP client half of the protocol regsec-epp serves",
	"dnsserver.AXFRClient.Transfer":            "AXFR client half of the zone transfer dnsserver serves",
	"registrar.Registrar.TransferIn":           "registrar behaviour model (domain transfer) only its tests drive",
	"registrar.Registrar.RolloverHostedDNSSEC": "double-DS KSK rollover, the model key-transition scenarios will drive",
	"registrar.Registrar.DisableHostedDNSSEC":  "registrar behaviour model (signing switched off) only its tests drive",
	"registrar.Registrar.UseRegistrarHosting":  "registrar behaviour model (moving a domain onto registrar DNS) only its tests drive",
	"registrar.Registrar.RemoveDS":             "registrar behaviour model (DS withdrawal) only its tests drive",
	"operator.Operator.DisableDNSSEC":          "operator behaviour model (signing switched off) only its tests drive",
	"operator.Operator.BootstrapViaRegistrar":  "operator behaviour model (DS upload through a registrar) only its tests drive",
	"colstore.NewBuilder":                      "reference row-at-a-time builder that Plan's output is checked against",
	"tldsim.BuildCustom":                       "hand-set world for the root BenchmarkAblationCDS and tldsim tests",
	"channel.PhoneDictation.Transcribe":        "DS-upload channel model the channel tests drive",
	"dnsserver.Authoritative.DeferredCount":    "counts unbuilt child zones without building one; tldsim's sweep test reads it",
	"zone.Zone.PlannedSigs":                    "counts unproduced signatures without producing one; dnsserver and tldsim tests read it",
}

// ifaceMethods are method names of standard-library interfaces: such a
// method is called through the interface, so no caller names it.
var ifaceMethods = map[string]bool{
	"Error": true, "String": true, "Unwrap": true, "Len": true, "Less": true,
	"Swap": true, "Push": true, "Pop": true, "Int63": true, "Seed": true,
	"Read": true, "ReadByte": true, "Write": true, "WriteTo": true, "Close": true,
	"ServeHTTP": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// exportedDecl is one exported declaration the guard checks.
type exportedDecl struct {
	key   string // pkg.Name or pkg.Type.Method
	name  string
	pos   token.Position
	block []string // for a const in a parenthesized block, the block's names
}

// TestNoTestOnlyExports fails on an exported name of the root module that
// no non-test Go file names outside its own declaration: surface that only
// tests use belongs beside those tests. bench/ and examples/ count as users.
// It also fails on a format callback — an exported struct field or a
// function parameter of type func(string, ...any) — in the root module:
// diagnostics go to log/slog's default logger.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{} // identifier → occurrences outside declarations
	var checked []exportedDecl
	declared := map[token.Pos]bool{}
	var files []*ast.File
	checkedFiles := map[*ast.File]string{} // checked file → its package name
	var callbacks []string

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// bench/out holds the benchmark's build cache and results.
			if n := d.Name(); path != "." && (strings.HasPrefix(n, ".") || n == "testdata" || path == filepath.Join("bench", "out")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		if guarded(filepath.ToSlash(filepath.Dir(path))) {
			checkedFiles[f] = f.Name.Name
		}
		if !strings.HasPrefix(filepath.ToSlash(path), "bench/") {
			for _, pos := range formatCallbacks(f) {
				callbacks = append(callbacks, fset.Position(pos).String())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 || len(checkedFiles) == 0 {
		t.Fatalf("parsed %d files, %d checked: the guard checks nothing", len(files), len(checkedFiles))
	}
	if len(callbacks) > 0 {
		t.Errorf("%d format callbacks; log through log/slog's default logger instead:\n%s",
			len(callbacks), strings.Join(callbacks, "\n"))
	}

	// Every top-level declaring identifier, in any file, is a declaration
	// and not a use.
	for _, f := range files {
		pkg, check := checkedFiles[f]
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				declared[d.Name.Pos()] = true
				if !check || !d.Name.IsExported() {
					continue
				}
				key := pkg + "." + d.Name.Name
				if d.Recv != nil {
					if ifaceMethods[d.Name.Name] {
						continue
					}
					key = pkg + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				checked = append(checked, exportedDecl{key: key, name: d.Name.Name, pos: fset.Position(d.Name.Pos())})
			case *ast.GenDecl:
				var block []string
				if d.Tok == token.CONST && d.Lparen.IsValid() {
					for _, s := range d.Specs {
						for _, n := range s.(*ast.ValueSpec).Names {
							block = append(block, n.Name)
						}
					}
				}
				for _, s := range d.Specs {
					var names []*ast.Ident
					switch s := s.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, n := range names {
						declared[n.Pos()] = true
						if check && n.IsExported() {
							checked = append(checked, exportedDecl{key: pkg + "." + n.Name, name: n.Name, pos: fset.Position(n.Pos()), block: block})
						}
					}
				}
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id.Pos()] {
				uses[id.Name]++
			}
			return true
		})
	}

	testOnly := map[string]bool{} // declared key → no production code names it
	var hits []string
	for _, d := range checked {
		only := uses[d.name] == 0
		for _, sibling := range d.block {
			only = only && uses[sibling] == 0
		}
		testOnly[d.key] = only
		if _, allowed := testOnlyAllowed[d.key]; only && !allowed {
			hits = append(hits, d.pos.Filename+":"+strconv.Itoa(d.pos.Line)+" "+d.key)
		}
	}
	for key, reason := range testOnlyAllowed {
		only, declared := testOnly[key]
		switch {
		case reason == "":
			t.Errorf("allowlist entry %s has no reason", key)
		case !declared:
			t.Errorf("allowlist entry %s names nothing declared: delete the entry", key)
		case !only:
			t.Errorf("allowlist entry %s has a production caller now: delete the entry", key)
		}
	}
	sort.Strings(hits)
	if len(hits) > 0 {
		t.Errorf("%d exported names only tests use; delete them, move them beside their tests, or allowlist them with a reason:\n%s",
			len(hits), strings.Join(hits, "\n"))
	}
}

// guarded reports whether the package in dir (slash-separated, relative to
// the module root) is checked: production packages of the root module
// other than the facade, commands, test support and the reference engine.
func guarded(dir string) bool {
	if dir == "." {
		return false
	}
	for _, skip := range []string{"bench", "examples", "cmd", "internal/dnstest", "internal/cmdtest", "internal/logtest", "internal/analysis"} {
		if dir == skip || strings.HasPrefix(dir, skip+"/") {
			return false
		}
	}
	return true
}

// formatCallbacks returns where f declares an exported struct field or a
// function parameter of type func(string, ...any).
func formatCallbacks(f *ast.File) []token.Pos {
	var at []token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.StructType:
			for _, field := range n.Fields.List {
				for _, name := range field.Names {
					if name.IsExported() && isFormatFunc(field.Type) {
						at = append(at, name.Pos())
					}
				}
			}
		case *ast.FuncType:
			for _, field := range n.Params.List {
				if isFormatFunc(field.Type) {
					at = append(at, field.Pos())
				}
			}
		}
		return true
	})
	return at
}

// isFormatFunc reports whether e is the type func(string, ...any), with or
// without parameter names and results.
func isFormatFunc(e ast.Expr) bool {
	fn, ok := e.(*ast.FuncType)
	if !ok {
		return false
	}
	var params []ast.Expr
	for _, field := range fn.Params.List {
		for range max(len(field.Names), 1) {
			params = append(params, field.Type)
		}
	}
	if len(params) != 2 || !isIdent(params[0], "string") {
		return false
	}
	rest, ok := params[1].(*ast.Ellipsis)
	return ok && isIdent(rest.Elt, "any")
}

// isIdent reports whether e is the identifier name.
func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

// recvName is the type name of a method receiver.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
