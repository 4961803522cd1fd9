package registrar_test

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"securepki.org/registrarsec/internal/channel"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/ecosystem"
	"securepki.org/registrarsec/internal/registrar"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/zone"
)

// world bundles an ecosystem with helpers for registrar tests.
type world struct {
	*ecosystem.Ecosystem
	t *testing.T
}

func newWorld(t *testing.T) *world {
	t.Helper()
	e, err := ecosystem.New(ecosystem.Config{TLDs: []string{"com", "se"}})
	if err != nil {
		t.Fatal(err)
	}
	return &world{Ecosystem: e, t: t}
}

// newRegistrar builds a registrar agent wired into the world.
func (w *world) newRegistrar(p registrar.Policy) *registrar.Registrar {
	w.t.Helper()
	if p.Roles == nil {
		p.Roles = map[string]registrar.Role{"com": {Kind: registrar.RoleRegistrar}}
	}
	r, err := registrar.New(p, registrar.Deps{
		Registries: w.Registries,
		Net:        w.Net,
		Clock:      w.Clock.Day,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	return r
}

// classify reports the paper-style deployment class of a domain, observed
// through DNS.
func (w *world) classify(domain string) dnssec.Deployment {
	w.t.Helper()
	tld, _ := dnswire.Parent(domain)
	reg, ok := w.Registries[tld].Registration(domain)
	if !ok {
		w.t.Fatalf("%s not registered", domain)
	}
	hasDS := len(reg.DS) > 0
	v := w.Validating()
	res, chain, err := v.Lookup(context.Background(), domain, dnswire.TypeDNSKEY)
	if err != nil {
		w.t.Fatalf("lookup %s: %v", domain, err)
	}
	hasKey := len(res.RRSet(domain, dnswire.TypeDNSKEY).RRs) > 0
	return dnssec.Classify(hasKey, hasDS, chain.Status == dnssec.Secure)
}

// ownerNS spins up an owner-run nameserver with a signed zone, returning
// the NS host, the signer and the zone.
func (w *world) ownerNS(domain, host string) (*zone.Signer, *zone.Zone) {
	w.t.Helper()
	z := zone.New(domain)
	z.MustAdd(dnswire.NewRR(domain, 3600, &dnswire.SOA{
		MName: host, RName: "hostmaster." + domain,
		Serial: 1, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
	}))
	z.MustAdd(dnswire.NewRR(domain, 3600, &dnswire.NS{Host: host}))
	signer, err := zone.NewSigner(dnswire.AlgED25519, w.Clock.Day().Time())
	if err != nil {
		w.t.Fatal(err)
	}
	signer.Expiration = simtime.End.Time().AddDate(1, 0, 0)
	if err := signer.Sign(z); err != nil {
		w.t.Fatal(err)
	}
	srv := dnsserver.NewAuthoritative()
	srv.AddZone(z)
	w.Net.Register(host, srv)
	return signer, z
}

func TestPurchaseHostedResolves(t *testing.T) {
	w := newWorld(t)
	r := w.newRegistrar(registrar.Policy{
		ID: "basic", Name: "Basic", NSHosts: []string{"ns1.basic.net", "ns2.basic.net"},
	})
	r.CreateAccount("alice@example.net")
	if err := r.Purchase("alice@example.net", "shop.com", ""); err != nil {
		t.Fatal(err)
	}
	res, err := w.Resolver(false).Resolve(context.Background(), "www.shop.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dnswire.RCodeSuccess || len(res.Answers) == 0 {
		t.Fatalf("hosted domain does not resolve: %v", res.RCode)
	}
	if w.classify("shop.com") != dnssec.DeploymentNone {
		t.Errorf("no-DNSSEC registrar produced %v", w.classify("shop.com"))
	}
	// Purchase requires an account and an offered TLD.
	if err := r.Purchase("ghost@example.net", "x.com", ""); !errors.Is(err, registrar.ErrNoSuchAccount) {
		t.Errorf("ghost purchase: %v", err)
	}
	if err := r.Purchase("alice@example.net", "x.se", ""); !errors.Is(err, registrar.ErrTLDNotOffered) {
		t.Errorf("unoffered TLD: %v", err)
	}
}

func TestHostedDNSSECPolicies(t *testing.T) {
	w := newWorld(t)

	t.Run("none", func(t *testing.T) {
		r := w.newRegistrar(registrar.Policy{ID: "noreg", Name: "NoDNSSEC", NSHosts: []string{"ns1.noreg.net"}})
		r.CreateAccount("a@x.net")
		if err := r.Purchase("a@x.net", "no1.com", ""); err != nil {
			t.Fatal(err)
		}
		if err := r.EnableHostedDNSSEC("a@x.net", "no1.com", false); !errors.Is(err, registrar.ErrNotSupported) {
			t.Errorf("EnableHostedDNSSEC: %v", err)
		}
	})

	t.Run("optin", func(t *testing.T) {
		r := w.newRegistrar(registrar.Policy{
			ID: "ovh-like", Name: "OptIn", NSHosts: []string{"ns1.optin.net"},
			HostedDNSSEC: registrar.SupportOptIn,
		})
		r.CreateAccount("a@x.net")
		if err := r.Purchase("a@x.net", "opt.com", ""); err != nil {
			t.Fatal(err)
		}
		// Not signed until the customer opts in.
		if got := w.classify("opt.com"); got != dnssec.DeploymentNone {
			t.Fatalf("before opt-in: %v", got)
		}
		if err := r.EnableHostedDNSSEC("a@x.net", "opt.com", false); err != nil {
			t.Fatal(err)
		}
		if got := w.classify("opt.com"); got != dnssec.DeploymentFull {
			t.Fatalf("after opt-in: %v", got)
		}
		if err := r.DisableHostedDNSSEC("a@x.net", "opt.com"); err != nil {
			t.Fatal(err)
		}
		if got := w.classify("opt.com"); got != dnssec.DeploymentNone {
			t.Fatalf("after disable: %v", got)
		}
	})

	t.Run("paid", func(t *testing.T) {
		r := w.newRegistrar(registrar.Policy{
			ID: "godaddy-like", Name: "Paid", NSHosts: []string{"ns1.paid.net"},
			HostedDNSSEC: registrar.SupportPaid, DNSSECFee: 35,
		})
		r.CreateAccount("a@x.net")
		if err := r.Purchase("a@x.net", "premium.com", ""); err != nil {
			t.Fatal(err)
		}
		if err := r.EnableHostedDNSSEC("a@x.net", "premium.com", false); !errors.Is(err, registrar.ErrPaymentRequired) {
			t.Errorf("unpaid enable: %v", err)
		}
		if err := r.EnableHostedDNSSEC("a@x.net", "premium.com", true); err != nil {
			t.Fatal(err)
		}
		if got := w.classify("premium.com"); got != dnssec.DeploymentFull {
			t.Fatalf("after paying: %v", got)
		}
	})

	t.Run("default", func(t *testing.T) {
		r := w.newRegistrar(registrar.Policy{
			ID: "transip-like", Name: "Default", NSHosts: []string{"ns1.dflt.net"},
			HostedDNSSEC: registrar.SupportDefault,
		})
		r.CreateAccount("a@x.net")
		if err := r.Purchase("a@x.net", "auto.com", ""); err != nil {
			t.Fatal(err)
		}
		if got := w.classify("auto.com"); got != dnssec.DeploymentFull {
			t.Fatalf("default signing: %v", got)
		}
	})

	t.Run("some-plans", func(t *testing.T) {
		r := w.newRegistrar(registrar.Policy{
			ID: "namecheap-like", Name: "SomePlans", NSHosts: []string{"ns1.plans.net"},
			HostedDNSSEC: registrar.SupportDefaultSomePlans,
			DNSSECPlans:  map[string]bool{"premiumdns": true},
			DefaultPlan:  "freedns",
		})
		r.CreateAccount("a@x.net")
		if err := r.Purchase("a@x.net", "free.com", ""); err != nil {
			t.Fatal(err)
		}
		if got := w.classify("free.com"); got != dnssec.DeploymentNone {
			t.Fatalf("free plan signed: %v", got)
		}
		if err := r.EnableHostedDNSSEC("a@x.net", "free.com", false); !errors.Is(err, registrar.ErrNotSupported) {
			t.Errorf("free plan enable: %v", err)
		}
		if err := r.Purchase("a@x.net", "prem.com", "premiumdns"); err != nil {
			t.Fatal(err)
		}
		if got := w.classify("prem.com"); got != dnssec.DeploymentFull {
			t.Fatalf("premium plan: %v", got)
		}
	})
}

func TestPartialDSPublication(t *testing.T) {
	// Loopia-style: signs every hosted zone but uploads DS only for .se.
	w := newWorld(t)
	r := w.newRegistrar(registrar.Policy{
		ID: "loopia-like", Name: "Partial", NSHosts: []string{"ns1.partial.se"},
		HostedDNSSEC:  registrar.SupportDefault,
		PublishDSTLDs: map[string]bool{"se": true},
		Roles: map[string]registrar.Role{
			"com": {Kind: registrar.RoleRegistrar},
			"se":  {Kind: registrar.RoleRegistrar},
		},
	})
	r.CreateAccount("a@x.net")
	if err := r.Purchase("a@x.net", "svensk.se", ""); err != nil {
		t.Fatal(err)
	}
	if err := r.Purchase("a@x.net", "global.com", ""); err != nil {
		t.Fatal(err)
	}
	if got := w.classify("svensk.se"); got != dnssec.DeploymentFull {
		t.Errorf(".se domain: %v", got)
	}
	// The .com domain is signed (DNSKEY served) but has no DS: partial.
	if got := w.classify("global.com"); got != dnssec.DeploymentPartial {
		t.Errorf(".com domain: %v", got)
	}
}

func TestExternalNameserverSwitch(t *testing.T) {
	w := newWorld(t)
	r := w.newRegistrar(registrar.Policy{
		ID: "switch", Name: "Switch", NSHosts: []string{"ns1.switch.net"},
		HostedDNSSEC: registrar.SupportDefault,
	})
	r.CreateAccount("a@x.net")
	if err := r.Purchase("a@x.net", "move.com", ""); err != nil {
		t.Fatal(err)
	}
	if got := w.classify("move.com"); got != dnssec.DeploymentFull {
		t.Fatalf("hosted: %v", got)
	}
	w.ownerNS("move.com", "ns1.owner.example")
	if err := r.UseExternalNameservers("a@x.net", "move.com", []string{"ns1.owner.example"}); err != nil {
		t.Fatal(err)
	}
	// The registrar must clear its DS: its keys no longer apply. The owner
	// zone is signed but its DS is not yet uploaded → partial.
	if got := w.classify("move.com"); got != dnssec.DeploymentPartial {
		t.Fatalf("after switch: %v", got)
	}
	reg, _ := w.Registries["com"].Registration("move.com")
	if len(reg.NS) != 1 || reg.NS[0] != "ns1.owner.example" {
		t.Errorf("registry NS: %v", reg.NS)
	}
	// And back to hosted: re-signed with DS by default.
	if err := r.UseRegistrarHosting("a@x.net", "move.com"); err != nil {
		t.Fatal(err)
	}
	if got := w.classify("move.com"); got != dnssec.DeploymentFull {
		t.Fatalf("back to hosted: %v", got)
	}
}

// TestExternalNameserversRequiresOne: a switch to owner-run DNS without a
// nameserver fails and changes nothing — the delegation, the DS and the
// hosted, fully deployed zone all stay.
func TestExternalNameserversRequiresOne(t *testing.T) {
	w := newWorld(t)
	r := w.newRegistrar(registrar.Policy{
		ID: "switch", Name: "Switch", NSHosts: []string{"ns1.switch.net"},
		HostedDNSSEC: registrar.SupportDefault,
	})
	r.CreateAccount("a@x.net")
	if err := r.Purchase("a@x.net", "stay.com", ""); err != nil {
		t.Fatal(err)
	}
	before, _ := w.Registries["com"].Registration("stay.com")
	if err := r.UseExternalNameservers("a@x.net", "stay.com", nil); err == nil {
		t.Fatal("switch to no nameservers accepted")
	}
	after, _ := w.Registries["com"].Registration("stay.com")
	if !reflect.DeepEqual(after, before) {
		t.Errorf("registration changed: %+v, was %+v", after, before)
	}
	if got := w.classify("stay.com"); got != dnssec.DeploymentFull {
		t.Errorf("after the refused switch: %v", got)
	}
}

func TestWebDSUploadValidationPolicies(t *testing.T) {
	w := newWorld(t)
	mk := func(id string, validates bool) *registrar.Registrar {
		r := w.newRegistrar(registrar.Policy{
			ID: id, Name: id, NSHosts: []string{"ns1." + id + ".net"},
			OwnerDNSSEC: true, DSChannel: channel.Web, ValidatesDS: validates,
		})
		r.CreateAccount("a@x.net")
		return r
	}
	garbage := &dnswire.DS{KeyTag: 1, Algorithm: dnswire.AlgED25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}

	t.Run("validating registrar rejects garbage", func(t *testing.T) {
		r := mk("strict", true)
		if err := r.Purchase("a@x.net", "strict.com", ""); err != nil {
			t.Fatal(err)
		}
		signer, _ := w.ownerNS("strict.com", "ns1.owner1.example")
		if err := r.UseExternalNameservers("a@x.net", "strict.com", []string{"ns1.owner1.example"}); err != nil {
			t.Fatal(err)
		}
		if err := r.SubmitDSWeb(context.Background(), "a@x.net", "strict.com", garbage); !errors.Is(err, registrar.ErrDSRejected) {
			t.Errorf("garbage DS: %v", err)
		}
		good, err := signer.DSRecords("strict.com", dnswire.DigestSHA256)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SubmitDSWeb(context.Background(), "a@x.net", "strict.com", good[0]); err != nil {
			t.Fatal(err)
		}
		if got := w.classify("strict.com"); got != dnssec.DeploymentFull {
			t.Errorf("after good DS: %v", got)
		}
	})

	t.Run("sloppy registrar accepts garbage and breaks the domain", func(t *testing.T) {
		r := mk("sloppy", false)
		if err := r.Purchase("a@x.net", "sloppy.com", ""); err != nil {
			t.Fatal(err)
		}
		w.ownerNS("sloppy.com", "ns1.owner2.example")
		if err := r.UseExternalNameservers("a@x.net", "sloppy.com", []string{"ns1.owner2.example"}); err != nil {
			t.Fatal(err)
		}
		if err := r.SubmitDSWeb(context.Background(), "a@x.net", "sloppy.com", garbage); err != nil {
			t.Fatalf("sloppy registrar rejected: %v", err)
		}
		// The domain is now bogus for validating resolvers.
		if got := w.classify("sloppy.com"); got != dnssec.DeploymentBroken {
			t.Errorf("after garbage DS: %v", got)
		}
	})

	t.Run("no web channel", func(t *testing.T) {
		r := w.newRegistrar(registrar.Policy{
			ID: "nochannel", Name: "NoChannel", NSHosts: []string{"ns1.noch.net"},
		})
		r.CreateAccount("a@x.net")
		if err := r.Purchase("a@x.net", "noch.com", ""); err != nil {
			t.Fatal(err)
		}
		if err := r.SubmitDSWeb(context.Background(), "a@x.net", "noch.com", garbage); !errors.Is(err, registrar.ErrNotSupported) {
			t.Errorf("no-channel submit: %v", err)
		}
	})
}

func TestEmailDSAuthentication(t *testing.T) {
	w := newWorld(t)
	setup := func(id string, auth registrar.EmailAuthLevel) (*registrar.Registrar, *dnswire.DS) {
		r := w.newRegistrar(registrar.Policy{
			ID: id, Name: id, NSHosts: []string{"ns1." + id + ".net"},
			OwnerDNSSEC: true, DSChannel: channel.Email, EmailAuth: auth,
		})
		r.CreateAccount("owner@legit.net")
		if err := r.Purchase("owner@legit.net", id+".com", ""); err != nil {
			t.Fatal(err)
		}
		signer, _ := w.ownerNS(id+".com", "ns1.owner-"+id+".example")
		if err := r.UseExternalNameservers("owner@legit.net", id+".com", []string{"ns1.owner-" + id + ".example"}); err != nil {
			t.Fatal(err)
		}
		ds, err := signer.DSRecords(id+".com", dnswire.DigestSHA256)
		if err != nil {
			t.Fatal(err)
		}
		return r, ds[0]
	}
	mail := func(from, domain string, ds *dnswire.DS, code string) channel.EmailMessage {
		return channel.EmailMessage{
			From: from, To: "support@registrar.example", Subject: domain,
			Body: "please install:\n" + channel.FormatDS(domain, ds), AuthCode: code,
		}
	}

	t.Run("no auth accepts forged sender", func(t *testing.T) {
		r, ds := setup("laxmail", registrar.EmailAuthNone)
		// The attack from section 6.4: mail from an address that never
		// registered the domain is accepted.
		if err := r.HandleSupportEmail(context.Background(), mail("attacker@evil.net", "laxmail.com", ds, "")); err != nil {
			t.Fatalf("forged email rejected by no-auth registrar: %v", err)
		}
		if got := w.classify("laxmail.com"); got != dnssec.DeploymentFull {
			t.Errorf("after email: %v", got)
		}
	})

	t.Run("address check blocks other senders", func(t *testing.T) {
		r, ds := setup("addrmail", registrar.EmailAuthAddress)
		if err := r.HandleSupportEmail(context.Background(), mail("attacker@evil.net", "addrmail.com", ds, "")); !errors.Is(err, registrar.ErrEmailRejected) {
			t.Errorf("forged email: %v", err)
		}
		if err := r.HandleSupportEmail(context.Background(), mail("owner@legit.net", "addrmail.com", ds, "")); err != nil {
			t.Fatalf("legit email: %v", err)
		}
	})

	t.Run("code check requires the account code", func(t *testing.T) {
		r, ds := setup("codemail", registrar.EmailAuthCode)
		if err := r.HandleSupportEmail(context.Background(), mail("owner@legit.net", "codemail.com", ds, "wrong")); !errors.Is(err, registrar.ErrEmailRejected) {
			t.Errorf("wrong code: %v", err)
		}
		acct := r.CreateAccount("owner@legit.net") // returns existing
		if err := r.HandleSupportEmail(context.Background(), mail("owner@legit.net", "codemail.com", ds, acct.SecurityCode)); err != nil {
			t.Fatalf("right code: %v", err)
		}
	})

	t.Run("unparseable body", func(t *testing.T) {
		r, _ := setup("parsemail", registrar.EmailAuthNone)
		msg := channel.EmailMessage{From: "x@y.net", Subject: "parsemail.com", Body: "enable dnssec plz"}
		if err := r.HandleSupportEmail(context.Background(), msg); err == nil {
			t.Error("accepted email without a DS record")
		}
	})
}

func TestTicketAndChatChannels(t *testing.T) {
	w := newWorld(t)

	t.Run("ticket", func(t *testing.T) {
		r := w.newRegistrar(registrar.Policy{
			ID: "ticketreg", Name: "Ticket", NSHosts: []string{"ns1.ticket.net"},
			OwnerDNSSEC: true, DSChannel: channel.Ticket,
		})
		r.CreateAccount("a@x.net")
		if err := r.Purchase("a@x.net", "ticket.com", ""); err != nil {
			t.Fatal(err)
		}
		signer, _ := w.ownerNS("ticket.com", "ns1.owner-t.example")
		if err := r.UseExternalNameservers("a@x.net", "ticket.com", []string{"ns1.owner-t.example"}); err != nil {
			t.Fatal(err)
		}
		ds, _ := signer.DSRecords("ticket.com", dnswire.DigestSHA256)
		err := r.HandleTicket(context.Background(), channel.TicketMessage{
			AccountEmail: "a@x.net", Domain: "ticket.com",
			Body: "attaching my DS record:\n" + channel.FormatDS("ticket.com", ds[0]),
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := w.classify("ticket.com"); got != dnssec.DeploymentFull {
			t.Errorf("after ticket: %v", got)
		}
		// Ticket for someone else's domain is refused (authenticated panel).
		r.CreateAccount("b@x.net")
		err = r.HandleTicket(context.Background(), channel.TicketMessage{AccountEmail: "b@x.net", Domain: "ticket.com", Body: "ds"})
		if !errors.Is(err, registrar.ErrNotYourDomain) {
			t.Errorf("cross-account ticket: %v", err)
		}
	})

	t.Run("chat misapply", func(t *testing.T) {
		r := w.newRegistrar(registrar.Policy{
			ID: "chatreg", Name: "Chat", NSHosts: []string{"ns1.chat.net"},
			OwnerDNSSEC: true, DSChannel: channel.Chat, ChatErrorRate: 1.0,
		})
		r.CreateAccount("a@x.net")
		if err := r.Purchase("a@x.net", "mine.com", ""); err != nil {
			t.Fatal(err)
		}
		if err := r.Purchase("a@x.net", "victim.com", ""); err != nil {
			t.Fatal(err)
		}
		signer, _ := w.ownerNS("mine.com", "ns1.owner-c.example")
		if err := r.UseExternalNameservers("a@x.net", "mine.com", []string{"ns1.owner-c.example"}); err != nil {
			t.Fatal(err)
		}
		ds, _ := signer.DSRecords("mine.com", dnswire.DigestSHA256)
		out, err := r.ChatUploadDS(context.Background(), "a@x.net", "mine.com", ds[0])
		if err != nil {
			t.Fatal(err)
		}
		if !out.Misapplied {
			t.Fatal("agent with error rate 1.0 did not misapply")
		}
		// The victim domain now has a DS that matches nothing it serves:
		// broken for validating resolvers, exactly the paper's anecdote.
		if got := w.classify(out.AppliedDomain); got != dnssec.DeploymentBroken {
			t.Errorf("victim %s: %v", out.AppliedDomain, got)
		}
	})
}

func TestDNSKEYUploadAndFetch(t *testing.T) {
	w := newWorld(t)

	t.Run("amazon-style DNSKEY upload", func(t *testing.T) {
		r := w.newRegistrar(registrar.Policy{
			ID: "aws-like", Name: "KeyUpload", NSHosts: []string{"ns1.keyup.net"},
			OwnerDNSSEC: true, DSChannel: channel.Web, AcceptsDNSKEY: true,
		})
		r.CreateAccount("a@x.net")
		if err := r.Purchase("a@x.net", "keyed.com", ""); err != nil {
			t.Fatal(err)
		}
		signer, _ := w.ownerNS("keyed.com", "ns1.owner-k.example")
		if err := r.UseExternalNameservers("a@x.net", "keyed.com", []string{"ns1.owner-k.example"}); err != nil {
			t.Fatal(err)
		}
		if err := r.SubmitDNSKEYWeb(context.Background(), "a@x.net", "keyed.com", signer.KSK.DNSKEY()); err != nil {
			t.Fatal(err)
		}
		if got := w.classify("keyed.com"); got != dnssec.DeploymentFull {
			t.Errorf("after DNSKEY upload: %v", got)
		}
		// "Not perfect": a DNSKEY that is NOT served is accepted too — and
		// produces a broken domain.
		other, err := dnssec.GenerateKeyPair(dnswire.AlgED25519, dnswire.FlagsKSK, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SubmitDNSKEYWeb(context.Background(), "a@x.net", "keyed.com", other.DNSKEY()); err != nil {
			t.Fatal(err)
		}
		if got := w.classify("keyed.com"); got != dnssec.DeploymentBroken {
			t.Errorf("unserved DNSKEY accepted but domain is %v", got)
		}
	})

	t.Run("pcextreme-style DS fetch", func(t *testing.T) {
		r := w.newRegistrar(registrar.Policy{
			ID: "pcx-like", Name: "Fetcher", NSHosts: []string{"ns1.fetch.net"},
			OwnerDNSSEC: true, DSChannel: channel.Web, FetchesDNSKEY: true, ValidatesDS: true,
		})
		r.CreateAccount("a@x.net")
		if err := r.Purchase("a@x.net", "fetched.com", ""); err != nil {
			t.Fatal(err)
		}
		w.ownerNS("fetched.com", "ns1.owner-f.example")
		if err := r.UseExternalNameservers("a@x.net", "fetched.com", []string{"ns1.owner-f.example"}); err != nil {
			t.Fatal(err)
		}
		if err := r.RequestDSFetch(context.Background(), "a@x.net", "fetched.com"); err != nil {
			t.Fatal(err)
		}
		if got := w.classify("fetched.com"); got != dnssec.DeploymentFull {
			t.Errorf("after fetch: %v", got)
		}
		// Only bootstraps the first DS; rollover via fetch is refused.
		if err := r.RequestDSFetch(context.Background(), "a@x.net", "fetched.com"); !errors.Is(err, registrar.ErrNotSupported) {
			t.Errorf("second fetch: %v", err)
		}
	})

	t.Run("cancelled context stops registrar-side lookups", func(t *testing.T) {
		r := w.newRegistrar(registrar.Policy{
			ID: "pcx-cancel", Name: "FetcherC", NSHosts: []string{"ns1.fetchc.net"},
			OwnerDNSSEC: true, DSChannel: channel.Web, FetchesDNSKEY: true, ValidatesDS: true,
		})
		r.CreateAccount("a@x.net")
		if err := r.Purchase("a@x.net", "cancelled.com", ""); err != nil {
			t.Fatal(err)
		}
		w.ownerNS("cancelled.com", "ns1.owner-c.example")
		if err := r.UseExternalNameservers("a@x.net", "cancelled.com", []string{"ns1.owner-c.example"}); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		// The registrar's DNSKEY fetch runs under the caller's context, so
		// the dead context must abort the lookup — no DS gets installed.
		if err := r.RequestDSFetch(ctx, "a@x.net", "cancelled.com"); err == nil {
			t.Fatal("DS fetch succeeded under a cancelled context")
		}
		if got := w.classify("cancelled.com"); got == dnssec.DeploymentFull {
			t.Error("DS installed despite cancelled context")
		}
	})
}

func TestResellerPath(t *testing.T) {
	w := newWorld(t)
	partner := w.newRegistrar(registrar.Policy{
		ID: "bigpartner", Name: "BigPartner", NSHosts: []string{"ns1.bigp.net"},
		Roles: map[string]registrar.Role{"com": {Kind: registrar.RoleRegistrar}},
	})
	reseller := w.newRegistrar(registrar.Policy{
		ID: "smallshop", Name: "SmallShop", NSHosts: []string{"ns1.small.net"},
		HostedDNSSEC: registrar.SupportDefault,
		Roles:        map[string]registrar.Role{"com": {Kind: registrar.RoleReseller, Partner: "bigpartner"}},
	})
	reseller.SetPartner("com", partner)
	reseller.CreateAccount("a@x.net")
	if err := reseller.Purchase("a@x.net", "resold.com", ""); err != nil {
		t.Fatal(err)
	}
	// The registry sees the PARTNER as the registrar of record.
	reg, ok := w.Registries["com"].Registration("resold.com")
	if !ok || reg.RegistrarID != "bigpartner" {
		t.Fatalf("registrar of record: %+v", reg)
	}
	// But the DNS operator is the reseller.
	if len(reg.NS) == 0 || dnswire.SecondLevel(reg.NS[0]) != "small.net" {
		t.Errorf("NS: %v", reg.NS)
	}
	if got := w.classify("resold.com"); got != dnssec.DeploymentFull {
		t.Errorf("resold domain: %v", got)
	}
}

func TestResellerPartnerWithoutDSSupport(t *testing.T) {
	// The TransIP/.se case: the partner registrar (KeySystems) enabled
	// DNSSEC "at a later date" — until then DS uploads fail and domains
	// stay partial.
	w := newWorld(t)
	enableDay := simtime.Date(2016, 7, 1)
	partner := w.newRegistrar(registrar.Policy{
		ID: "keysys-like", Name: "KeySys", NSHosts: []string{"ns1.keysys.net"},
		Roles:         map[string]registrar.Role{"se": {Kind: registrar.RoleRegistrar}},
		DSSupportFrom: enableDay,
	})
	reseller := w.newRegistrar(registrar.Policy{
		ID: "transip-like2", Name: "TransIPish", NSHosts: []string{"ns1.tip.net"},
		HostedDNSSEC: registrar.SupportDefault,
		Roles:        map[string]registrar.Role{"se": {Kind: registrar.RoleReseller, Partner: "keysys-like"}},
	})
	reseller.SetPartner("se", partner)
	reseller.CreateAccount("a@x.net")
	if err := reseller.Purchase("a@x.net", "late.se", ""); err != nil {
		t.Fatal(err)
	}
	// Before the partner supports DS: signed but partial.
	if got := w.classify("late.se"); got != dnssec.DeploymentPartial {
		t.Fatalf("before partner support: %v", got)
	}
	// Advance past the enablement and retry.
	w.Clock.Set(enableDay + 1)
	if err := reseller.EnableHostedDNSSEC("a@x.net", "late.se", false); err != nil {
		t.Fatal(err)
	}
	if got := w.classify("late.se"); got != dnssec.DeploymentFull {
		t.Fatalf("after partner support: %v", got)
	}
}

func TestBootstrapDSAPI(t *testing.T) {
	w := newWorld(t)
	r := w.newRegistrar(registrar.Policy{
		ID: "draftreg", Name: "Draft", NSHosts: []string{"ns1.draft.net"},
		OwnerDNSSEC: true, DSChannel: channel.Web,
	})
	r.CreateAccount("a@x.net")
	if err := r.Purchase("a@x.net", "drafted.com", ""); err != nil {
		t.Fatal(err)
	}
	signer, _ := w.ownerNS("drafted.com", "ns1.owner-d.example")
	if err := r.UseExternalNameservers("a@x.net", "drafted.com", []string{"ns1.owner-d.example"}); err != nil {
		t.Fatal(err)
	}
	ds, _ := signer.DSRecords("drafted.com", dnswire.DigestSHA256)
	if err := r.BootstrapDS(context.Background(), "drafted.com", ds[0]); err != nil {
		t.Fatal(err)
	}
	if got := w.classify("drafted.com"); got != dnssec.DeploymentFull {
		t.Errorf("after bootstrap: %v", got)
	}
	// The draft mandates verification: an unserved DS is refused.
	garbage := &dnswire.DS{KeyTag: 2, Algorithm: dnswire.AlgED25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}
	if err := r.BootstrapDS(context.Background(), "drafted.com", garbage); !errors.Is(err, registrar.ErrDSRejected) {
		t.Errorf("garbage bootstrap: %v", err)
	}
}

func TestRolloverHostedDNSSEC(t *testing.T) {
	w := newWorld(t)
	r := w.newRegistrar(registrar.Policy{
		ID: "roller", Name: "Roller", NSHosts: []string{"ns1.roller.net"},
		HostedDNSSEC: registrar.SupportDefault,
	})
	r.CreateAccount("a@x.net")
	if err := r.Purchase("a@x.net", "spin.com", ""); err != nil {
		t.Fatal(err)
	}
	if got := w.classify("spin.com"); got != dnssec.DeploymentFull {
		t.Fatalf("before rollover: %v", got)
	}
	regBefore, _ := w.Registries["com"].Registration("spin.com")
	if err := r.RolloverHostedDNSSEC("a@x.net", "spin.com"); err != nil {
		t.Fatal(err)
	}
	// Still fully deployed and valid after the rollover...
	if got := w.classify("spin.com"); got != dnssec.DeploymentFull {
		t.Fatalf("after rollover: %v", got)
	}
	// ...and the DS actually changed.
	regAfter, _ := w.Registries["com"].Registration("spin.com")
	if len(regBefore.DS) == 0 || len(regAfter.DS) == 0 {
		t.Fatal("DS missing")
	}
	if regBefore.DS[0].KeyTag == regAfter.DS[0].KeyTag {
		t.Error("DS key tag unchanged: rollover did not rotate the KSK")
	}
	// Rollover on an unsigned domain is refused.
	if err := r.Purchase("a@x.net", "plainspin.com", ""); err != nil {
		t.Fatal(err)
	}
	r2 := w.newRegistrar(registrar.Policy{
		ID: "noroll", Name: "NoRoll", NSHosts: []string{"ns1.noroll.net"},
	})
	r2.CreateAccount("a@x.net")
	if err := r2.Purchase("a@x.net", "never.com", ""); err != nil {
		t.Fatal(err)
	}
	if err := r2.RolloverHostedDNSSEC("a@x.net", "never.com"); !errors.Is(err, registrar.ErrNotSupported) {
		t.Errorf("rollover without DNSSEC: %v", err)
	}
}

func TestRolloverPartialPublisherStaysPartial(t *testing.T) {
	// A Loopia-like registrar rolls keys for a TLD it never uploads DS
	// for: the domain must remain partial, never broken.
	w := newWorld(t)
	r := w.newRegistrar(registrar.Policy{
		ID: "partialroll", Name: "PartialRoll", NSHosts: []string{"ns1.proll.se"},
		HostedDNSSEC:  registrar.SupportDefault,
		PublishDSTLDs: map[string]bool{"se": true},
		Roles: map[string]registrar.Role{
			"com": {Kind: registrar.RoleRegistrar},
			"se":  {Kind: registrar.RoleRegistrar},
		},
	})
	r.CreateAccount("a@x.net")
	if err := r.Purchase("a@x.net", "quiet.com", ""); err != nil {
		t.Fatal(err)
	}
	if got := w.classify("quiet.com"); got != dnssec.DeploymentPartial {
		t.Fatalf("before: %v", got)
	}
	if err := r.RolloverHostedDNSSEC("a@x.net", "quiet.com"); err != nil {
		t.Fatal(err)
	}
	if got := w.classify("quiet.com"); got != dnssec.DeploymentPartial {
		t.Errorf("after rollover: %v, want still partial", got)
	}
}

func TestRegistrarAccessors(t *testing.T) {
	w := newWorld(t)
	r := w.newRegistrar(registrar.Policy{
		ID: "acc", Name: "Accessor", NSHosts: []string{"ns1.acc.net"},
		DefaultPlan: "basic", DNSSECPlans: map[string]bool{"prem": true},
		Roles: map[string]registrar.Role{
			"com": {Kind: registrar.RoleRegistrar},
			"se":  {Kind: registrar.RoleReseller, Partner: "other"},
		},
	})
	plans := r.Plans()
	if len(plans) != 2 || plans[0] != "basic" {
		t.Errorf("Plans: %v", plans)
	}
	if r.RoleFor("com").Kind != registrar.RoleRegistrar ||
		r.RoleFor("se").Partner != "other" ||
		r.RoleFor("nl").Kind != registrar.RoleNone {
		t.Error("RoleFor wrong")
	}
	for lvl, want := range map[registrar.SupportLevel]string{
		registrar.SupportNone: "none", registrar.SupportOptIn: "opt-in",
		registrar.SupportPaid: "paid", registrar.SupportDefault: "default",
		registrar.SupportDefaultSomePlans: "default-some-plans",
	} {
		if lvl.String() != want {
			t.Errorf("SupportLevel(%d) = %q", lvl, lvl.String())
		}
	}
	r.CreateAccount("a@x.net")
	if err := r.Purchase("a@x.net", "acc.com", ""); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(r.DomainNames(), "acc.com") {
		t.Error("Domain lookup failed")
	}
	if err := r.RemoveDS("a@x.net", "acc.com"); err != nil {
		t.Errorf("RemoveDS on DS-less domain: %v", err)
	}
}
