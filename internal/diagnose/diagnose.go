// Package diagnose implements a DNSViz/DNSSEC-Debugger-style health check
// (the administrator tooling the paper's related work points to): given a
// domain, it pulls the delegation, DS, DNSKEY and RRSIG records through
// live queries and reports every misconfiguration in the chain — missing
// DS (partial deployment), DS matching no key, expired or invalid
// signatures, unsigned RRsets, missing denial-of-existence chains.
//
// The paper's probe uses the same checks to verify what a registrar
// actually deployed; this package packages them for an administrator
// audience (cmd/regsec-check).
package diagnose

import (
	"context"
	"errors"
	"fmt"
	"time"

	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/scan"
)

// Severity grades a finding.
type Severity int

const (
	// Info: expected state worth reporting (e.g. "zone is unsigned").
	Info Severity = iota
	// Warning: works today but fragile (e.g. no denial chain).
	Warning
	// Error: validation fails for DNSSEC-aware resolvers.
	Error
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return "info"
}

// Code identifies a finding class.
type Code string

// Finding codes.
const (
	CodeNoDelegation Code = "NO_DELEGATION"
	CodeUnsigned     Code = "UNSIGNED"
	CodePartial      Code = "PARTIAL_NO_DS"
	CodeDSNoMatch    Code = "DS_MATCHES_NO_KEY"
	CodeDSOrphan     Code = "DS_WITHOUT_DNSKEY"
	CodeKeyUnsigned  Code = "DNSKEY_UNSIGNED"
	CodeSigExpired   Code = "RRSIG_EXPIRED"
	CodeSigNotYet    Code = "RRSIG_NOT_YET_VALID"
	CodeSigInvalid   Code = "RRSIG_INVALID"
	CodeWrongSigner  Code = "DNSKEY_WRONG_SIGNER"
	CodeNoDenial     Code = "NO_DENIAL_CHAIN"
	CodeNoSEP        Code = "NO_SEP_KEY"
	CodeHealthy      Code = "CHAIN_OK"
)

// Finding is one diagnostic result.
type Finding struct {
	Severity Severity
	Code     Code
	Message  string
}

// Report is the outcome of a domain check.
type Report struct {
	Domain     string
	Deployment dnssec.Deployment
	Findings   []Finding
}

// Errors returns only the error-severity findings.
func (r *Report) Errors() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Severity == Error {
			out = append(out, f)
		}
	}
	return out
}

func (r *Report) add(sev Severity, code Code, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{Severity: sev, Code: code, Message: fmt.Sprintf(format, args...)})
}

// Checker runs diagnostics through an exchanger.
type Checker struct {
	// Exchange issues queries.
	Exchange exchange.Exchanger
	// ParentServer answers NS/DS queries for the domain (the TLD server).
	ParentServer string
	// Now anchors signature-window checks (time.Now when nil).
	Now func() time.Time

	qid uint16
}

func (c *Checker) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

// send stamps the next query ID on q and issues it.
func (c *Checker) send(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	c.qid++
	q.ID = c.qid
	return c.Exchange.Exchange(ctx, server, q)
}

// Check diagnoses one domain. It looks at the domain exactly as the sweep
// does (scan.Observe, dnssec.Link), so the two cannot disagree about it; an
// observation that could not be completed — the parent unreachable for the
// DS query, every nameserver dark — is an error, never a report.
func (c *Checker) Check(ctx context.Context, domain string) (*Report, error) {
	domain = dnswire.CanonicalName(domain)
	rep := &Report{Domain: domain}

	obs, err := scan.Observe(ctx, exchange.Func(c.send), c.ParentServer, domain, nil)
	var fail *scan.Failure
	switch {
	case errors.Is(err, scan.ErrUnregistered), errors.As(err, &fail) && fail.Class == scan.FailNoNS:
		rep.add(Error, CodeNoDelegation, "no NS delegation for %s at the parent", domain)
		return rep, nil
	case err != nil:
		return nil, fmt.Errorf("diagnose: %w", err)
	}
	link := dnssec.Link(domain, obs.DS, obs.Keys, c.now())
	explain(rep, obs, &link)
	rep.Deployment = dnssec.Classify(link.HasDNSKEY, link.HasDS, link.KeysValid)

	// Denial-of-existence chain.
	if link.HasDNSKEY {
		c.checkDenial(ctx, rep, domain, obs.NSHosts)
	}

	if len(rep.Errors()) == 0 && rep.Deployment == dnssec.DeploymentFull {
		rep.add(Info, CodeHealthy, "chain of trust is complete and valid")
	}
	return rep, nil
}

// explain turns the link's verdict into findings.
func explain(rep *Report, obs *scan.Observation, link *dnssec.ZoneLink) {
	domain := rep.Domain
	switch {
	case !link.HasDNSKEY && !link.HasDS:
		rep.add(Info, CodeUnsigned, "%s is unsigned (no DNSKEY, no DS)", domain)
		return
	case !link.HasDNSKEY:
		rep.add(Error, CodeDSOrphan,
			"the parent publishes %d DS record(s) but %s serves no DNSKEY — validating resolvers cannot resolve this domain", len(obs.DS), domain)
		return
	case !link.HasDS:
		rep.add(Error, CodePartial,
			"%s publishes DNSKEYs but no DS exists at the parent: the chain of trust is broken (partial deployment); ask your registrar to install the DS", domain)
	}
	hasSEP := false
	for _, k := range obs.Keys.Keys() {
		if k.IsSEP() {
			hasSEP = true
		}
	}
	if !hasSEP {
		rep.add(Warning, CodeNoSEP, "no DNSKEY carries the SEP flag; key management tooling may mishandle rollovers")
	}
	if link.HasDS && !link.DSMatches {
		rep.add(Error, CodeDSNoMatch,
			"none of the %d DS record(s) matches a served DNSKEY — a mis-uploaded DS; the domain is bogus for validating resolvers", len(obs.DS))
		return
	}
	if len(obs.Keys.Sigs) == 0 {
		rep.add(Error, CodeKeyUnsigned, "the DNSKEY RRset is not signed")
		return
	}
	for _, f := range link.SigFailures {
		switch f.Fault {
		case dnssec.SigExpired:
			rep.add(Error, CodeSigExpired, "RRSIG over DNSKEY expired %s",
				time.Unix(int64(f.Sig.Expiration), 0).UTC().Format("2006-01-02"))
		case dnssec.SigNotYetValid:
			rep.add(Error, CodeSigNotYet, "RRSIG over DNSKEY not valid until %s",
				time.Unix(int64(f.Sig.Inception), 0).UTC().Format("2006-01-02"))
		case dnssec.SigUntrustedKey:
			rep.add(Error, CodeWrongSigner,
				"RRSIG over DNSKEY was made by key %d, which no DS matches — the parent vouches for no key that signed the key set (a rollover that swapped DS and signing key out of order?)", f.Sig.KeyTag)
		default:
			rep.add(Error, CodeSigInvalid, "RRSIG over DNSKEY does not verify: %v", f.Err)
		}
	}
}

// checkDenial probes a guaranteed-nonexistent name and checks that the zone
// offers NSEC or NSEC3 proofs.
func (c *Checker) checkDenial(ctx context.Context, rep *Report, domain string, nsHosts []string) {
	probe := "regsec-denial-probe." + domain
	for _, host := range nsHosts {
		q := dnswire.NewQuery(0, probe, dnswire.TypeA)
		q.SetEDNS(4096, true)
		resp, err := c.send(ctx, host, q)
		if err != nil {
			continue
		}
		for _, rr := range resp.Authority {
			if rr.Type == dnswire.TypeNSEC || rr.Type == dnswire.TypeNSEC3 {
				return // denial material present
			}
		}
		rep.add(Warning, CodeNoDenial,
			"the zone is signed but offers no NSEC/NSEC3 proof for nonexistent names; negative answers cannot be authenticated")
		return
	}
}
