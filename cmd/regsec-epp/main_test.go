package main

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/cmdtest"
	"securepki.org/registrarsec/internal/epp"
)

// TestMain makes the test binary regsec-epp when the tests re-execute it.
func TestMain(m *testing.M) { cmdtest.Main(m, func() int { main(); return 0 }) }

// TestFlagDocs: README's Tools row and the Usage comment name the flags -h
// prints, each once, and no other.
func TestFlagDocs(t *testing.T) { cmdtest.CheckFlagDocs(t, "regsec-epp") }

// TestAccreditChecked: an -accredit entry with an empty ID or password, or
// an ID named twice, stops regsec-epp with exit 2 and a message naming it;
// one still running after 10 s serves the entry and is killed.
func TestAccreditChecked(t *testing.T) {
	for _, bad := range []string{":pw", "acme:", "acme", "acme:a,acme:b"} {
		cmd := cmdtest.Command("-epp", "127.0.0.1:0", "-dns", "127.0.0.1:0", "-accredit", bad)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		kill := time.AfterFunc(10*time.Second, func() { cmd.Process.Kill() })
		err := cmd.Wait()
		kill.Stop()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(out.String(), "bad -accredit entry") {
			t.Errorf("-accredit %q: %v\n%s", bad, err, out.String())
		}
	}
}

// TestStartupListsRegistrars: the startup line names the accredited
// registrars in sorted order, each logs in over the EPP listener with its
// own password only, and an interrupt stops the registry cleanly.
func TestStartupListsRegistrars(t *testing.T) {
	cmd := cmdtest.Command("-epp", "127.0.0.1:0", "-dns", "127.0.0.1:0", "-accredit", "zed:z,acme:a,mid:m")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	var addr string
	for lines := bufio.NewScanner(stdout); addr == "" && lines.Scan(); {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(lines.Text()), "EPP:"); ok {
			fields := strings.Fields(rest)
			addr = fields[0]
			if got := strings.Join(fields[1:], " "); got != "(registrars: acme, mid, zed)" {
				t.Errorf("startup line lists %s", got)
			}
		}
	}
	if addr == "" {
		t.Fatal("no EPP line on stdout")
	}
	for _, login := range []struct {
		id, pw string
		ok     bool
	}{{"acme", "a", true}, {"mid", "m", true}, {"zed", "a", false}} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c, err := epp.NewClient(conn)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Login(login.id, login.pw); (err == nil) != login.ok {
			t.Errorf("login %s:%s: %v", login.id, login.pw, err)
		}
		c.Close()
	}
	cmd.Process.Signal(os.Interrupt)
	if err := cmd.Wait(); err != nil {
		t.Errorf("after an interrupt: %v", err)
	}
}
