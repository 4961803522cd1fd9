package registrarsec

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
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
