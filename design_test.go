package registrarsec

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// designRow is the first cell of a DESIGN.md §3 row that names a package.
var designRow = regexp.MustCompile("^\\| `(internal/[a-z0-9]+)` \\|")

// TestDesignInventory holds DESIGN.md §3's system inventory to the tree:
// every package under internal/ has exactly one row, and every row names a
// package that exists.
func TestDesignInventory(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, inventory, ok := strings.Cut(string(design), "\n## 3. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 3")
	}
	inventory, _, _ = strings.Cut(inventory, "\n## ")
	rows := map[string]int{}
	for _, line := range strings.Split(inventory, "\n") {
		if m := designRow.FindStringSubmatch(line); m != nil {
			rows[m[1]]++
		}
	}

	packages := map[string]bool{}
	goFiles, err := filepath.Glob(filepath.Join("internal", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range goFiles {
		packages[filepath.ToSlash(filepath.Dir(f))] = true
	}
	if len(packages) == 0 {
		t.Fatal("no package under internal/: the test checks nothing")
	}

	var problems []string
	for pkg := range packages {
		if rows[pkg] != 1 {
			problems = append(problems, fmt.Sprintf("%s: %d row(s) in DESIGN.md §3, want one", pkg, rows[pkg]))
		}
	}
	for pkg := range rows {
		if !packages[pkg] {
			problems = append(problems, pkg+": a DESIGN.md §3 row names no package")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// TestNoProductionImportOfAnalysis fails when a non-test Go file outside
// bench/ imports internal/analysis: colstore owns the result types and
// computes every figure, and the record-at-a-time reference only checks
// it, in tests and in bench/'s oracles.
func TestNoProductionImportOfAnalysis(t *testing.T) {
	ref := strconv.Quote("securepki.org/registrarsec/internal/analysis")
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (path == "bench" || strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, spec := range f.Imports {
			if spec.Path.Value == ref {
				t.Errorf("%s imports internal/analysis; take the result types and figures from colstore", filepath.ToSlash(path))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go file parsed: the test checks nothing")
	}
}

// TestCIPatternsMatchTests: go test -run X exits 0 when X matches no test,
// so a test renamed or merged away would drop out of a CI step unnoticed.
// Every |-alternative of each -run and -fuzz pattern in
// .github/workflows/ci.yml must match a Test, Fuzz or Benchmark function of
// a package its go test line names. An alternative that matches the empty
// name, as '^$' does, selects nothing on purpose.
func TestCIPatternsMatchTests(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, line := range strings.Split(string(ci), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		var dirs, patterns []string
		fields := strings.Fields(cmd)
		for k := 0; k < len(fields); k++ {
			flag, value, _ := strings.Cut(fields[k], "=")
			switch {
			case (flag == "-run" || flag == "-fuzz") && value == "" && k+1 < len(fields):
				k++
				value = fields[k]
				fallthrough
			case flag == "-run" || flag == "-fuzz":
				patterns = append(patterns, strings.Trim(value, `'"`))
			case flag == "." || strings.HasPrefix(flag, "./"):
				dirs = append(dirs, flag)
			}
		}
		if len(patterns) == 0 {
			continue
		}
		names := testFuncs(t, dirs)
		for _, pattern := range patterns {
			for _, alt := range strings.Split(pattern, "|") {
				re, err := regexp.Compile(strings.Split(alt, "/")[0])
				if err != nil {
					t.Fatalf("ci.yml: %q: %v", line, err)
				}
				checked++
				if re.MatchString("") || slices.ContainsFunc(names, re.MatchString) {
					continue
				}
				t.Errorf("ci.yml runs %q in %v, which matches no test there: %s", alt, dirs, strings.TrimSpace(line))
			}
		}
	}
	if checked == 0 {
		t.Fatal("ci.yml names no -run or -fuzz pattern")
	}
}

var testFunc = regexp.MustCompile(`^(Test|Fuzz|Benchmark)`)

// testFuncs returns the Test, Fuzz and Benchmark functions declared in the
// packages dirs names, as go test names them: ".", "./path" or
// "./path/...".
func testFuncs(t *testing.T, dirs []string) []string {
	var names []string
	fset := token.NewFileSet()
	for _, dir := range dirs {
		root, recursive := strings.CutSuffix(dir, "/...")
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && path != root && (!recursive || d.Name() == "testdata" || d.Name() == "bench" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && testFunc.MatchString(fn.Name.Name) {
					names = append(names, fn.Name.Name)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}
