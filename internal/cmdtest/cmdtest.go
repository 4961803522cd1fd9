// Package cmdtest is test support for the cmd/ packages whose TestMain runs
// the command itself when REGSEC_RUN_MAIN=1: it re-executes the test binary
// as the command, and holds the command's documentation to its flag set.
package cmdtest

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Command is the test binary re-executed as the command it tests.
func Command(args ...string) *exec.Cmd {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "REGSEC_RUN_MAIN=1")
	return cmd
}

// Buffer collects a running command's output for the test to read while
// the process writes it.
type Buffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *Buffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *Buffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var (
	// A flag.PrintDefaults line; the test binary's own -test.* flags are
	// not the command's.
	helpFlag = regexp.MustCompile(`(?m)^  -([a-z][a-z0-9-]*)( |$)`)
	docFlag  = regexp.MustCompile("(?:^|[\\s\\[(`/])-([a-z][a-z0-9-]*)")
	// The tab-indented comment lines after "// Usage:", up to the first
	// line of prose.
	usageBlock = regexp.MustCompile(`// Usage:\n(//(\t.*)?\n)+`)
)

// CheckFlagDocs holds what is written about the command name to the flags
// its -h prints: README.md's Tools row for it and the `// Usage:` block of
// its main.go must each name every flag exactly once and no other. It runs
// in the command's package directory.
func CheckFlagDocs(t *testing.T, name string) {
	t.Helper()
	var help bytes.Buffer
	cmd := Command("-h")
	cmd.Stderr = &help
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s -h: %v", name, err)
	}
	flags := map[string]bool{}
	for _, m := range helpFlag.FindAllStringSubmatch(help.String(), -1) {
		flags[m[1]] = true
	}
	if len(flags) == 0 {
		t.Fatalf("%s -h printed no flags:\n%s", name, help.String())
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	row := regexp.MustCompile("(?m)^\\| `" + name + "` \\|.*$").Find(readme)
	checkNamed(t, "README.md's Tools row for "+name, string(row), flags)

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	checkNamed(t, "the Usage comment of cmd/"+name+"/main.go", string(usageBlock.Find(src)), flags)
}

// checkNamed requires text to name each flag exactly once and none other.
func checkNamed(t *testing.T, where, text string, flags map[string]bool) {
	t.Helper()
	named := map[string]int{}
	for _, m := range docFlag.FindAllStringSubmatch(text, -1) {
		named[m[1]]++
	}
	var problems []string
	for f := range flags {
		switch {
		case named[f] == 0:
			problems = append(problems, "-"+f+" is named nowhere")
		case named[f] > 1:
			problems = append(problems, "-"+f+" is named more than once")
		}
	}
	for f := range named {
		if !flags[f] {
			problems = append(problems, "-"+f+" is not a flag of the command")
		}
	}
	sort.Strings(problems)
	if len(problems) > 0 {
		t.Errorf("%s: %s", where, strings.Join(problems, "; "))
	}
}
