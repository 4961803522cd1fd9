package registrarsec

import (
	"fmt"
	"strings"
	"testing"
)

// WHOIS is the data source the paper deliberately avoids (section 4.2):
// registrars render records in inconsistent house formats, and a reseller's
// record names the accredited partner, which would conflate reseller and
// registrar behaviour. BenchmarkAblationGrouping's whois-parse case parses
// these renderings best-effort to show why NS-based operator grouping is the
// sounder methodology.

// whoisRecord is the ground truth behind a WHOIS entry. For a reseller's
// domain, Registrar is the accredited partner.
type whoisRecord struct {
	Domain, Registrar string
	NameServers       []string
}

// whoisSchemas are three representative registrar house formats.
var whoisSchemas = []func(whoisRecord) string{
	// ICANN-ish key: value.
	func(r whoisRecord) string {
		var sb strings.Builder
		fmt.Fprintf(&sb, "Domain Name: %s\n", strings.ToUpper(r.Domain))
		fmt.Fprintf(&sb, "Registrar: %s\n", r.Registrar)
		for _, ns := range r.NameServers {
			fmt.Fprintf(&sb, "Name Server: %s\n", strings.ToUpper(ns))
		}
		return sb.String()
	},
	// Terse European style with different labels.
	func(r whoisRecord) string {
		var sb strings.Builder
		fmt.Fprintf(&sb, "domain:   %s\n", r.Domain)
		fmt.Fprintf(&sb, "registrar:%s\n", r.Registrar)
		for _, ns := range r.NameServers {
			fmt.Fprintf(&sb, "nserver:  %s\n", ns)
		}
		return sb.String()
	},
	// Free-prose style that defeats naive parsers.
	func(r whoisRecord) string {
		return fmt.Sprintf("%s is registered through %s.\nDNS is handled by %s.\n",
			r.Domain, r.Registrar, strings.Join(r.NameServers, " and "))
	},
}

// parseWhois extracts registrar and nameservers from arbitrary WHOIS
// output. It understands the common labelled formats; prose formats defeat
// it (by design — that is the measurement point).
func parseWhois(text string) (*whoisRecord, error) {
	p := &whoisRecord{}
	for _, line := range strings.Split(text, "\n") {
		lower := strings.ToLower(line)
		switch {
		case strings.HasPrefix(lower, "registrar:"):
			p.Registrar = strings.TrimSpace(line[len("registrar:"):])
		case strings.HasPrefix(lower, "name server:"):
			p.NameServers = append(p.NameServers, strings.ToLower(strings.TrimSpace(line[len("name server:"):])))
		case strings.HasPrefix(lower, "nserver:"):
			p.NameServers = append(p.NameServers, strings.ToLower(strings.TrimSpace(line[len("nserver:"):])))
		}
	}
	if p.Registrar == "" && len(p.NameServers) == 0 {
		return nil, fmt.Errorf("whois: unparseable record")
	}
	return p, nil
}

// whoisSample is a reseller's domain: the accredited partner BigPartner Inc
// sponsors it, and the reseller's DNS operator serves it from small.net.
func whoisSample() whoisRecord {
	return whoisRecord{Domain: "example.com", Registrar: "BigPartner Inc", NameServers: []string{"ns1.small.net", "ns2.small.net"}}
}

func TestWhoisSchemasRender(t *testing.T) {
	for i, schema := range whoisSchemas {
		if schema(whoisSample()) == "" {
			t.Errorf("schema %d produced nothing", i)
		}
	}
}

func TestWhoisParseLabelledSchemas(t *testing.T) {
	for i := 0; i < 2; i++ {
		p, err := parseWhois(whoisSchemas[i](whoisSample()))
		if err != nil {
			t.Fatalf("schema %d: %v", i, err)
		}
		if p.Registrar != "BigPartner Inc" {
			t.Errorf("schema %d registrar: %q", i, p.Registrar)
		}
		if len(p.NameServers) != 2 || p.NameServers[0] != "ns1.small.net" {
			t.Errorf("schema %d nameservers: %v", i, p.NameServers)
		}
	}
}

func TestWhoisParseProseSchemaFails(t *testing.T) {
	if _, err := parseWhois(whoisSchemas[2](whoisSample())); err == nil {
		t.Error("prose schema parsed — the methodology point is that it should not")
	}
}

func TestWhoisConflatesResellers(t *testing.T) {
	// The WHOIS registrar field names the accredited partner, hiding the
	// reseller — while the NS records reveal the actual DNS operator.
	p, err := parseWhois(whoisSchemas[0](whoisSample()))
	if err != nil {
		t.Fatal(err)
	}
	if p.Registrar != "BigPartner Inc" {
		t.Errorf("registrar %q, want the accredited partner", p.Registrar)
	}
	if len(p.NameServers) == 0 || p.NameServers[0] != "ns1.small.net" {
		t.Errorf("NS-based grouping lost the operator: %v", p.NameServers)
	}
}
