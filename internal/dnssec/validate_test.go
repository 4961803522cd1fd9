package dnssec

import (
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dnswire"
)

// memFetcher is a hand-built Fetcher over a static record store, used to
// exercise the validator without the zone or server layers.
type memFetcher struct {
	sets map[string]*RRSet // key: name|type
	cuts map[string][]string
	err  error
}

func rkey(name string, t dnswire.Type) string { return name + "|" + t.String() }

func (f *memFetcher) FetchRRSet(_ context.Context, name string, t dnswire.Type) (*RRSet, error) {
	if f.err != nil {
		return nil, f.err
	}
	if s, ok := f.sets[rkey(name, t)]; ok {
		return s, nil
	}
	return &RRSet{}, nil
}

func (f *memFetcher) Cuts(_ context.Context, name string) ([]string, error) {
	if f.err != nil {
		return nil, f.err
	}
	return f.cuts[name], nil
}

func (f *memFetcher) put(name string, rrs []*dnswire.RR, sigs ...*dnswire.RR) {
	set := &RRSet{RRs: rrs}
	for _, s := range sigs {
		set.Sigs = append(set.Sigs, s.Data.(*dnswire.RRSIG))
	}
	f.sets[rkey(name, rrs[0].Type)] = set
}

// chainWorld wires a signed root → org → example.org hierarchy.
type chainWorld struct {
	fetcher *memFetcher
	anchor  []*dnswire.DS
	keys    map[string]*KeyPair // zone → ZSK/KSK combined key
}

// buildChain constructs a fully signed three-level hierarchy. Each zone uses
// a single CSK (combined KSK+ZSK) for brevity; the validator does not care.
func buildChain(t *testing.T) *chainWorld {
	t.Helper()
	w := &chainWorld{
		fetcher: &memFetcher{sets: map[string]*RRSet{}, cuts: map[string][]string{}},
		keys:    map[string]*KeyPair{},
	}
	zones := []string{"", "org", "example.org"}
	for _, z := range zones {
		w.keys[z] = genKey(t, dnswire.AlgED25519, dnswire.FlagsKSK)
	}
	// DNSKEY RRsets, self-signed.
	for _, z := range zones {
		keyRR := w.keys[z].RR(z, 3600)
		sig, err := SignRRSet([]*dnswire.RR{keyRR}, w.keys[z], z, testWindow)
		if err != nil {
			t.Fatal(err)
		}
		w.fetcher.put(z, []*dnswire.RR{keyRR}, sig)
	}
	// DS records in the parents, signed by the parent.
	for i := 1; i < len(zones); i++ {
		child, parent := zones[i], zones[i-1]
		ds, err := ComputeDS(child, w.keys[child].DNSKEY(), dnswire.DigestSHA256)
		if err != nil {
			t.Fatal(err)
		}
		dsRR := dnswire.NewRR(child, 3600, ds)
		sig, err := SignRRSet([]*dnswire.RR{dsRR}, w.keys[parent], parent, testWindow)
		if err != nil {
			t.Fatal(err)
		}
		w.fetcher.put(child, []*dnswire.RR{dsRR}, sig)
	}
	// Trust anchor: DS of the root key.
	rootDS, err := ComputeDS("", w.keys[""].DNSKEY(), dnswire.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	w.anchor = []*dnswire.DS{rootDS}
	// Target data in example.org.
	a := dnswire.NewRR("www.example.org", 300, &dnswire.A{Addr: netip.MustParseAddr("192.0.2.10")})
	sig, err := SignRRSet([]*dnswire.RR{a}, w.keys["example.org"], "example.org", testWindow)
	if err != nil {
		t.Fatal(err)
	}
	w.fetcher.put("www.example.org", []*dnswire.RR{a}, sig)
	w.fetcher.cuts["www.example.org"] = []string{"", "org", "example.org"}
	return w
}

func (w *chainWorld) validator() *Validator {
	return &Validator{Anchor: w.anchor, Fetch: w.fetcher, Now: func() time.Time { return testNow }}
}

// validates requires the validator's verdict on www.example.org's A RRset
// to be want, and returns it; a fetch error is the verdict Indeterminate
// alone may carry.
func validates(t *testing.T, v *Validator, want Status) *Result {
	t.Helper()
	res, err := v.Validate(context.Background(), "www.example.org", dnswire.TypeA)
	if err != nil && want != Indeterminate {
		t.Fatal(err)
	}
	if res.Status != want {
		t.Fatalf("Status = %v (%s), want %v", res.Status, res.Reason, want)
	}
	return res
}

func TestValidateSecureChain(t *testing.T) {
	w := buildChain(t)
	res := validates(t, w.validator(), Secure)
	if len(res.Chain) != 3 {
		t.Errorf("chain has %d links", len(res.Chain))
	}
	for _, link := range res.Chain {
		if !link.HasDS || !link.HasDNSKEY || !link.DSMatches || !link.KeysValid {
			t.Errorf("link %+v incomplete", link)
		}
	}
}

func TestValidateInsecureWithoutDS(t *testing.T) {
	w := buildChain(t)
	// Remove the DS for example.org: the classic partial deployment.
	delete(w.fetcher.sets, rkey("example.org", dnswire.TypeDS))
	validates(t, w.validator(), Insecure)
}

func TestValidateBogusMismatchedDS(t *testing.T) {
	w := buildChain(t)
	// Replace the example.org DS with a digest of an unrelated key — what a
	// registrar that accepts arbitrary DS uploads lets happen.
	stranger := genKey(t, dnswire.AlgED25519, dnswire.FlagsKSK)
	ds, err := ComputeDS("example.org", stranger.DNSKEY(), dnswire.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	dsRR := dnswire.NewRR("example.org", 3600, ds)
	sig, err := SignRRSet([]*dnswire.RR{dsRR}, w.keys["org"], "org", testWindow)
	if err != nil {
		t.Fatal(err)
	}
	w.fetcher.put("example.org", []*dnswire.RR{dsRR}, sig)
	validates(t, w.validator(), Bogus)
}

func TestValidateBogusExpired(t *testing.T) {
	w := buildChain(t)
	v := w.validator()
	v.Now = func() time.Time { return testWindow.Expiration.Add(48 * time.Hour) }
	validates(t, v, Bogus)
}

func TestValidateBogusUnsignedTarget(t *testing.T) {
	w := buildChain(t)
	set := w.fetcher.sets[rkey("www.example.org", dnswire.TypeA)]
	set.Sigs = nil
	validates(t, w.validator(), Bogus)
}

func TestValidateBogusMissingDNSKEY(t *testing.T) {
	w := buildChain(t)
	delete(w.fetcher.sets, rkey("example.org", dnswire.TypeDNSKEY))
	validates(t, w.validator(), Bogus)
}

func TestValidateIndeterminateOnFetchError(t *testing.T) {
	w := buildChain(t)
	w.fetcher.err = errors.New("network unreachable")
	validates(t, w.validator(), Indeterminate)
}

func TestClassify(t *testing.T) {
	cases := []struct {
		hasKey, hasDS, valid bool
		want                 Deployment
	}{
		{false, false, false, DeploymentNone},
		{true, false, false, DeploymentPartial},
		{true, true, true, DeploymentFull},
		{true, true, false, DeploymentBroken},
		{false, true, false, DeploymentBroken}, // DS without DNSKEY breaks resolution
	}
	for _, c := range cases {
		if got := Classify(c.hasKey, c.hasDS, c.valid); got != c.want {
			t.Errorf("Classify(%v,%v,%v) = %v, want %v", c.hasKey, c.hasDS, c.valid, got, c.want)
		}
	}
}

func TestStatusAndDeploymentStrings(t *testing.T) {
	if Secure.String() != "secure" || Bogus.String() != "bogus" ||
		Insecure.String() != "insecure" || Indeterminate.String() != "indeterminate" {
		t.Error("Status strings")
	}
	if DeploymentNone.String() != "none" || DeploymentPartial.String() != "partial" ||
		DeploymentFull.String() != "full" || DeploymentBroken.String() != "broken" {
		t.Error("Deployment strings")
	}
}

func TestDSComputeAndMatch(t *testing.T) {
	key := genKey(t, dnswire.AlgECDSAP256SHA256, dnswire.FlagsKSK)
	for _, dt := range []dnswire.DigestType{dnswire.DigestSHA1, dnswire.DigestSHA256, dnswire.DigestSHA384} {
		ds, err := ComputeDS("example.com", key.DNSKEY(), dt)
		if err != nil {
			t.Fatalf("ComputeDS(%v): %v", dt, err)
		}
		wantLen := map[dnswire.DigestType]int{
			dnswire.DigestSHA1: 20, dnswire.DigestSHA256: 32, dnswire.DigestSHA384: 48,
		}[dt]
		if len(ds.Digest) != wantLen {
			t.Errorf("%v digest length %d, want %d", dt, len(ds.Digest), wantLen)
		}
		if !MatchDS("example.com", ds, key.DNSKEY()) {
			t.Errorf("%v: MatchDS rejects its own digest", dt)
		}
		// The owner name is part of the digest: same key at another name
		// must not match.
		if MatchDS("other.com", ds, key.DNSKEY()) {
			t.Errorf("%v: DS matched under wrong owner", dt)
		}
	}
	if _, err := ComputeDS("example.com", key.DNSKEY(), dnswire.DigestType(9)); err == nil {
		t.Error("unknown digest type accepted")
	}
	// A garbage DS (what most registrars in the study accept) must not match.
	garbage := &dnswire.DS{KeyTag: 1, Algorithm: key.Algorithm, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}
	if MatchDS("example.com", garbage, key.DNSKEY()) {
		t.Error("garbage DS matched")
	}
	if MatchAnyDS("example.com", []*dnswire.DS{garbage}, []*dnswire.DNSKEY{key.DNSKEY()}) {
		t.Error("MatchAnyDS matched garbage")
	}
	good, _ := ComputeDS("example.com", key.DNSKEY(), dnswire.DigestSHA256)
	if !MatchAnyDS("example.com", []*dnswire.DS{garbage, good}, []*dnswire.DNSKEY{key.DNSKEY()}) {
		t.Error("MatchAnyDS missed the good DS")
	}
}

func TestDSFromCDS(t *testing.T) {
	key := genKey(t, dnswire.AlgED25519, dnswire.FlagsKSK)
	ds, err := ComputeDS("example.org", key.DNSKEY(), dnswire.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	out, remove := DSFromCDS([]*dnswire.CDS{{DS: *ds}})
	if remove || len(out) != 1 || !MatchDS("example.org", out[0], key.DNSKEY()) {
		t.Errorf("DSFromCDS: %v remove=%v", out, remove)
	}
	// RFC 8078 delete sentinel.
	_, remove = DSFromCDS([]*dnswire.CDS{{DS: dnswire.DS{Algorithm: dnswire.AlgDelete, Digest: []byte{0}}}})
	if !remove {
		t.Error("delete sentinel not recognized")
	}
}
