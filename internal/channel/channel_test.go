package channel

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"securepki.org/registrarsec/internal/dnswire"
)

func sampleDS() *dnswire.DS {
	return &dnswire.DS{
		KeyTag: 60485, Algorithm: dnswire.AlgRSASHA256,
		DigestType: dnswire.DigestSHA256,
		Digest: []byte{
			0x2b, 0xb1, 0x83, 0xaf, 0x5f, 0x22, 0x58, 0x81,
			0x79, 0xa5, 0x3b, 0x0a, 0x98, 0x63, 0x1f, 0xad,
			0x1a, 0x29, 0x21, 0x18, 0x2b, 0xb1, 0x83, 0xaf,
			0x5f, 0x22, 0x58, 0x81, 0x79, 0xa5, 0x3b, 0x0a,
		},
	}
}

func TestParseDSFromFormatted(t *testing.T) {
	ds := sampleDS()
	text := FormatDS("example.com", ds)
	got, err := ParseDSFromText(text)
	if err != nil {
		t.Fatalf("ParseDSFromText(%q): %v", text, err)
	}
	if got.KeyTag != ds.KeyTag || got.Algorithm != ds.Algorithm ||
		got.DigestType != ds.DigestType || !bytes.Equal(got.Digest, ds.Digest) {
		t.Errorf("round trip mismatch: %+v vs %+v", got, ds)
	}
}

func TestParseDSFromChattyEmail(t *testing.T) {
	ds := sampleDS()
	body := "Hi support,\n\nplease install this DS record for my domain:\n\n" +
		"  " + ds.String() + "\n\nthanks!\n"
	got, err := ParseDSFromText(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.KeyTag != ds.KeyTag || !bytes.Equal(got.Digest, ds.Digest) {
		t.Error("DS mangled when embedded in prose")
	}
}

func TestParseDSRejectsJunk(t *testing.T) {
	for _, body := range []string{
		"",
		"please enable dnssec",
		"12 34", // too short to be a DS
	} {
		if _, err := ParseDSFromText(body); err == nil {
			t.Errorf("accepted %q", body)
		}
	}
}

func TestChatSessionMisapplies(t *testing.T) {
	ds := sampleDS()
	// Deterministic: rate 1 always misapplies when other domains exist.
	s := &ChatSession{
		ErrorRate:    1.0,
		Rng:          rand.New(rand.NewSource(3)),
		OtherDomains: []string{"victim.com", "bystander.com"},
	}
	out := s.Submit("mine.com", ds)
	if !out.Misapplied || out.AppliedDomain == "mine.com" {
		t.Errorf("expected misapply, got %+v", out)
	}
	// Rate 0 never misapplies.
	s.ErrorRate = 0
	out = s.Submit("mine.com", ds)
	if out.Misapplied || out.AppliedDomain != "mine.com" {
		t.Errorf("unexpected misapply: %+v", out)
	}
	// No rng: deterministic correct behaviour.
	s2 := &ChatSession{ErrorRate: 1}
	if out := s2.Submit("mine.com", ds); out.Misapplied {
		t.Error("misapplied without rng")
	}
}

func TestPhoneDictationNoise(t *testing.T) {
	ds := sampleDS()
	p := &PhoneDictation{ErrorRate: 0, Rng: rand.New(rand.NewSource(1))}
	if got := p.Transcribe(ds); !bytes.Equal(got.Digest, ds.Digest) {
		t.Error("zero error rate altered digest")
	}
	p.ErrorRate = 0.5
	altered := false
	for i := 0; i < 10 && !altered; i++ {
		if !bytes.Equal(p.Transcribe(ds).Digest, ds.Digest) {
			altered = true
		}
	}
	if !altered {
		t.Error("50% error rate never altered the digest")
	}
	// Original must never be mutated.
	if !bytes.Equal(ds.Digest, sampleDS().Digest) {
		t.Error("Transcribe mutated its input")
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		Kind(0): "none", Web: "web", Email: "email", Ticket: "ticket", Chat: "chat", Phone: "phone",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestParseDSWithWrappedHex(t *testing.T) {
	// Digest hex wrapped across lines, as email clients do.
	body := "60485 8 2 2BB183AF5F22588179A53B0A98631FAD\n1A2921182BB183AF5F22588179A53B0A"
	got, err := ParseDSFromText(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Digest) != 32 {
		t.Errorf("digest length %d", len(got.Digest))
	}
	if !strings.HasPrefix(strings.ToUpper(got.String()), "60485 8 2 2BB183AF") {
		t.Errorf("reassembled DS: %s", got)
	}
}

// PhoneDictation models dictating a DS digest over the phone. Each hex
// digit is independently mis-transcribed with ErrorRate probability — the
// isoc.org anecdote (section 2, footnote 6).
type PhoneDictation struct {
	ErrorRate float64
	Rng       *rand.Rand
}

// Transcribe returns the digest as the agent heard it.
func (p *PhoneDictation) Transcribe(ds *dnswire.DS) *dnswire.DS {
	out := *ds
	out.Digest = append([]byte(nil), ds.Digest...)
	if p.Rng == nil {
		return &out
	}
	for i := range out.Digest {
		for nib := 0; nib < 2; nib++ {
			if p.Rng.Float64() < p.ErrorRate {
				shift := uint(4 * nib)
				repl := byte(p.Rng.Intn(16)) << shift
				out.Digest[i] = out.Digest[i]&^(0xf<<shift) | repl
			}
		}
	}
	return &out
}
