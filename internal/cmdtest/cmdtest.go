// Package cmdtest is test support for the cmd/ packages whose TestMain runs
// the command itself when REGSEC_RUN_MAIN=1: it re-executes the test binary
// as the command — to its exit, or as a daemon the test polls and kills —
// and holds the command's documentation to its flag set.
package cmdtest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// Main is a command's TestMain: re-executed by Command, the test binary
// runs the command and exits with run's code; otherwise it runs the tests.
func Main(m *testing.M, run func() int) {
	if os.Getenv("REGSEC_RUN_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

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

// Exit runs the command with args to its exit and returns its exit code and
// stderr. A command still running after 10 s — a daemon that started
// serving instead of refusing — is killed and reported as exit code -1.
func Exit(t testing.TB, args ...string) (int, string) {
	t.Helper()
	cmd := Command(args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(10*time.Second, func() { cmd.Process.Kill() })
	err := cmd.Wait()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case timer.Stop() && errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	return -1, stderr.String()
}

// Await polls cond every 2 ms until it holds, and fails the test after
// 20 s, naming what it waited for, with log, when log is not nil.
func Await(t testing.TB, what string, log fmt.Stringer, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			if log == nil {
				t.Fatalf("never saw %s", what)
			}
			t.Fatalf("never saw %s:\n%s", what, log)
		}
	}
}

// Process is the command running in the background, its stderr collected.
// When the test ends, a process it has not waited for is killed and reaped.
type Process struct {
	t      testing.TB
	Cmd    *exec.Cmd
	Stderr *Buffer
	URL    string // where a daemon serves (StartDaemon)
}

// Start starts the command with args.
func Start(t testing.TB, args ...string) *Process {
	t.Helper()
	p := &Process{t: t, Cmd: Command(args...), Stderr: &Buffer{}}
	p.Cmd.Stderr = p.Stderr
	if err := p.Cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if p.Cmd.ProcessState == nil {
			p.Cmd.Process.Kill()
			p.Cmd.Wait()
		}
	})
	return p
}

// StartDaemon starts the command with args and -listen 127.0.0.1:0, and
// waits until its stderr matches announce, whose first group is the URL it
// serves on.
func StartDaemon(t testing.TB, announce *regexp.Regexp, args ...string) *Process {
	t.Helper()
	p := Start(t, append(args, "-listen", "127.0.0.1:0")...)
	p.Await("its address", func() bool {
		m := announce.FindStringSubmatch(p.Stderr.String())
		if m != nil {
			p.URL = m[1]
		}
		return m != nil
	})
	return p
}

// Await polls cond as Await does, failing with the process's stderr.
func (p *Process) Await(what string, cond func() bool) {
	p.t.Helper()
	Await(p.t, what, p.Stderr, cond)
}

// Kill sends SIGKILL and returns what waiting for the exit returns.
func (p *Process) Kill() error {
	p.Cmd.Process.Signal(syscall.SIGKILL)
	return p.Cmd.Wait()
}

// Stop sends SIGTERM and requires a clean exit.
func (p *Process) Stop() {
	p.t.Helper()
	p.Cmd.Process.Signal(syscall.SIGTERM)
	if err := p.Cmd.Wait(); err != nil {
		p.t.Fatalf("on SIGTERM: %v\n%s", err, p.Stderr)
	}
}

// Get returns the body of a 200 response to the daemon's path, or nil.
func (p *Process) Get(path string) []byte {
	resp, err := http.Get(p.URL + path)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	return body
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
