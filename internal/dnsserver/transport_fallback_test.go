package dnsserver_test

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
)

// oversizedHandler answers every query with a TXT RRset far larger than the
// 512-byte classic-UDP payload, so the Server's UDP leg must truncate and
// the exchanger must fall back to TCP. corruptTCPID flips the response ID
// from the second call on — the TCP leg — to simulate a middlebox or buggy
// server mangling the stream.
type oversizedHandler struct {
	calls        atomic.Int32
	corruptTCPID bool
}

func (h *oversizedHandler) ServeDNS(q *dnswire.Message) *dnswire.Message {
	n := h.calls.Add(1)
	resp := q.Reply()
	resp.Authoritative = true
	long := strings.Repeat("y", 220)
	name := q.Questions[0].Name
	for i := 0; i < 4; i++ {
		resp.Answers = append(resp.Answers, dnswire.NewRR(name, 300, &dnswire.TXT{Strings: []string{long}}))
	}
	if h.corruptTCPID && n > 1 {
		resp.ID ^= 0x5a5a
	}
	return resp
}

// fallback exchanges query id with h behind a Server over loopback and
// requires h to have answered it twice, over UDP and then TCP.
func fallback(t *testing.T, h *oversizedHandler, id uint16) (*dnswire.Message, error) {
	t.Helper()
	ex := &dnsserver.NetExchanger{Timeout: 2 * time.Second}
	resp, err := ex.Exchange(context.Background(), listen(t, h).Addr(), dnswire.NewQuery(id, "big.example", dnswire.TypeTXT))
	if got := h.calls.Load(); got != 2 {
		t.Errorf("handler calls: %d, want 2 (UDP then TCP)", got)
	}
	return resp, err
}

// TestTruncationFallsBackToTCP drives the truncation path end to end over
// loopback sockets: the oversized UDP answer comes back TC=1, and the
// exchanger's TCP retry delivers the full RRset.
func TestTruncationFallsBackToTCP(t *testing.T) {
	resp, err := fallback(t, &oversizedHandler{}, 4242)
	if err != nil {
		t.Fatalf("exchange: %v", err)
	}
	if resp.Truncated {
		t.Error("final response still truncated after TCP fallback")
	}
	if len(resp.Answers) != 4 {
		t.Errorf("answers after fallback: %d, want 4", len(resp.Answers))
	}
}

// TestTCPResponseIDMismatch corrupts the ID on the TCP leg only: the UDP
// answer truncates cleanly, the fallback connects, and the exchanger must
// reject the mangled response instead of returning it.
func TestTCPResponseIDMismatch(t *testing.T) {
	if _, err := fallback(t, &oversizedHandler{corruptTCPID: true}, 4243); err == nil || !strings.Contains(err.Error(), "ID mismatch") {
		t.Errorf("error = %v, want TCP response ID mismatch", err)
	}
}
