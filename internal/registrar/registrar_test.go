package registrar_test

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"securepki.org/registrarsec/internal/channel"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/ecosystem"
	"securepki.org/registrarsec/internal/ecotest"
	"securepki.org/registrarsec/internal/registrar"
	"securepki.org/registrarsec/internal/simtime"
)

func newWorld(t *testing.T) *ecotest.World {
	return ecotest.New(t, ecosystem.Config{TLDs: []string{"com", "se"}})
}

func TestPurchaseHostedResolves(t *testing.T) {
	w := newWorld(t)
	r := w.Registrar(registrar.Policy{
		ID: "basic", Name: "Basic", NSHosts: []string{"ns1.basic.net", "ns2.basic.net"},
	})
	w.Buy(r, "alice@example.net", "shop.com")
	res, err := w.Resolver(false).Resolve(context.Background(), "www.shop.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dnswire.RCodeSuccess || len(res.Answers) == 0 {
		t.Fatalf("hosted domain does not resolve: %v", res.RCode)
	}
	if w.Classify("shop.com") != dnssec.DeploymentNone {
		t.Errorf("no-DNSSEC registrar produced %v", w.Classify("shop.com"))
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
		r := w.Registrar(registrar.Policy{ID: "noreg", Name: "NoDNSSEC", NSHosts: []string{"ns1.noreg.net"}})
		w.Buy(r, "a@x.net", "no1.com")
		if err := r.EnableHostedDNSSEC("a@x.net", "no1.com", false); !errors.Is(err, registrar.ErrNotSupported) {
			t.Errorf("EnableHostedDNSSEC: %v", err)
		}
	})

	t.Run("optin", func(t *testing.T) {
		r := w.Registrar(registrar.Policy{
			ID: "ovh-like", Name: "OptIn", NSHosts: []string{"ns1.optin.net"},
			HostedDNSSEC: registrar.SupportOptIn,
		})
		w.Buy(r, "a@x.net", "opt.com")
		// Not signed until the customer opts in.
		w.Expect(t, "opt.com", dnssec.DeploymentNone)
		if err := r.EnableHostedDNSSEC("a@x.net", "opt.com", false); err != nil {
			t.Fatal(err)
		}
		w.Expect(t, "opt.com", dnssec.DeploymentFull)
		if err := r.DisableHostedDNSSEC("a@x.net", "opt.com"); err != nil {
			t.Fatal(err)
		}
		w.Expect(t, "opt.com", dnssec.DeploymentNone)
	})

	t.Run("paid", func(t *testing.T) {
		r := w.Registrar(registrar.Policy{
			ID: "godaddy-like", Name: "Paid", NSHosts: []string{"ns1.paid.net"},
			HostedDNSSEC: registrar.SupportPaid, DNSSECFee: 35,
		})
		w.Buy(r, "a@x.net", "premium.com")
		if err := r.EnableHostedDNSSEC("a@x.net", "premium.com", false); !errors.Is(err, registrar.ErrPaymentRequired) {
			t.Errorf("unpaid enable: %v", err)
		}
		if err := r.EnableHostedDNSSEC("a@x.net", "premium.com", true); err != nil {
			t.Fatal(err)
		}
		w.Expect(t, "premium.com", dnssec.DeploymentFull)
	})

	t.Run("default", func(t *testing.T) {
		r := w.Registrar(registrar.Policy{
			ID: "transip-like", Name: "Default", NSHosts: []string{"ns1.dflt.net"},
			HostedDNSSEC: registrar.SupportDefault,
		})
		w.Buy(r, "a@x.net", "auto.com")
		w.Expect(t, "auto.com", dnssec.DeploymentFull)
	})

	t.Run("some-plans", func(t *testing.T) {
		r := w.Registrar(registrar.Policy{
			ID: "namecheap-like", Name: "SomePlans", NSHosts: []string{"ns1.plans.net"},
			HostedDNSSEC: registrar.SupportDefaultSomePlans,
			DNSSECPlans:  map[string]bool{"premiumdns": true},
			DefaultPlan:  "freedns",
		})
		w.Buy(r, "a@x.net", "free.com")
		w.Expect(t, "free.com", dnssec.DeploymentNone)
		if err := r.EnableHostedDNSSEC("a@x.net", "free.com", false); !errors.Is(err, registrar.ErrNotSupported) {
			t.Errorf("free plan enable: %v", err)
		}
		if err := r.Purchase("a@x.net", "prem.com", "premiumdns"); err != nil {
			t.Fatal(err)
		}
		w.Expect(t, "prem.com", dnssec.DeploymentFull)
	})
}

func TestPartialDSPublication(t *testing.T) {
	// Loopia-style: signs every hosted zone but uploads DS only for .se.
	w := newWorld(t)
	r := w.Registrar(registrar.Policy{
		ID: "loopia-like", Name: "Partial", NSHosts: []string{"ns1.partial.se"},
		HostedDNSSEC:  registrar.SupportDefault,
		PublishDSTLDs: map[string]bool{"se": true},
		Roles: map[string]registrar.Role{
			"com": {Kind: registrar.RoleRegistrar},
			"se":  {Kind: registrar.RoleRegistrar},
		},
	})
	w.Buy(r, "a@x.net", "svensk.se")
	if err := r.Purchase("a@x.net", "global.com", ""); err != nil {
		t.Fatal(err)
	}
	w.Expect(t, "svensk.se", dnssec.DeploymentFull)
	// The .com domain is signed (DNSKEY served) but has no DS: partial.
	w.Expect(t, "global.com", dnssec.DeploymentPartial)
}

func TestExternalNameserverSwitch(t *testing.T) {
	w := newWorld(t)
	r := w.Registrar(registrar.Policy{
		ID: "switch", Name: "Switch", NSHosts: []string{"ns1.switch.net"},
		HostedDNSSEC: registrar.SupportDefault,
	})
	w.Buy(r, "a@x.net", "move.com")
	w.Expect(t, "move.com", dnssec.DeploymentFull)
	ecotest.OwnerZone(t, w.Ecosystem, "move.com", "ns1.owner.example")
	if err := r.UseExternalNameservers("a@x.net", "move.com", []string{"ns1.owner.example"}); err != nil {
		t.Fatal(err)
	}
	// The registrar must clear its DS: its keys no longer apply. The owner
	// zone is signed but its DS is not yet uploaded → partial.
	w.Expect(t, "move.com", dnssec.DeploymentPartial)
	reg, _ := w.Registries["com"].Registration("move.com")
	if len(reg.NS) != 1 || reg.NS[0] != "ns1.owner.example" {
		t.Errorf("registry NS: %v", reg.NS)
	}
	// And back to hosted: re-signed with DS by default.
	if err := r.UseRegistrarHosting("a@x.net", "move.com"); err != nil {
		t.Fatal(err)
	}
	w.Expect(t, "move.com", dnssec.DeploymentFull)
}

// TestExternalNameserversRequiresOne: a switch to owner-run DNS without a
// nameserver fails and changes nothing — the delegation, the DS and the
// hosted, fully deployed zone all stay.
func TestExternalNameserversRequiresOne(t *testing.T) {
	w := newWorld(t)
	r := w.Registrar(registrar.Policy{
		ID: "switch", Name: "Switch", NSHosts: []string{"ns1.switch.net"},
		HostedDNSSEC: registrar.SupportDefault,
	})
	w.Buy(r, "a@x.net", "stay.com")
	before, _ := w.Registries["com"].Registration("stay.com")
	if err := r.UseExternalNameservers("a@x.net", "stay.com", nil); err == nil {
		t.Fatal("switch to no nameservers accepted")
	}
	after, _ := w.Registries["com"].Registration("stay.com")
	if !reflect.DeepEqual(after, before) {
		t.Errorf("registration changed: %+v, was %+v", after, before)
	}
	w.Expect(t, "stay.com", dnssec.DeploymentFull)
}

func TestWebDSUploadValidationPolicies(t *testing.T) {
	w := newWorld(t)
	mk := func(id string, validates bool) *registrar.Registrar {
		r := w.Registrar(registrar.Policy{
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
		_, signer := ecotest.OwnerZone(t, w.Ecosystem, "strict.com", "ns1.owner1.example")
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
		w.Expect(t, "strict.com", dnssec.DeploymentFull)
	})

	t.Run("sloppy registrar accepts garbage and breaks the domain", func(t *testing.T) {
		r := mk("sloppy", false)
		if err := r.Purchase("a@x.net", "sloppy.com", ""); err != nil {
			t.Fatal(err)
		}
		ecotest.OwnerZone(t, w.Ecosystem, "sloppy.com", "ns1.owner2.example")
		if err := r.UseExternalNameservers("a@x.net", "sloppy.com", []string{"ns1.owner2.example"}); err != nil {
			t.Fatal(err)
		}
		if err := r.SubmitDSWeb(context.Background(), "a@x.net", "sloppy.com", garbage); err != nil {
			t.Fatalf("sloppy registrar rejected: %v", err)
		}
		// The domain is now bogus for validating resolvers.
		w.Expect(t, "sloppy.com", dnssec.DeploymentBroken)
	})

	t.Run("no web channel", func(t *testing.T) {
		r := w.Registrar(registrar.Policy{
			ID: "nochannel", Name: "NoChannel", NSHosts: []string{"ns1.noch.net"},
		})
		w.Buy(r, "a@x.net", "noch.com")
		if err := r.SubmitDSWeb(context.Background(), "a@x.net", "noch.com", garbage); !errors.Is(err, registrar.ErrNotSupported) {
			t.Errorf("no-channel submit: %v", err)
		}
	})
}

func TestEmailDSAuthentication(t *testing.T) {
	w := newWorld(t)
	setup := func(id string, auth registrar.EmailAuthLevel) (*registrar.Registrar, *dnswire.DS) {
		r := w.Registrar(registrar.Policy{
			ID: id, Name: id, NSHosts: []string{"ns1." + id + ".net"},
			OwnerDNSSEC: true, DSChannel: channel.Email, EmailAuth: auth,
		})
		r.CreateAccount("owner@legit.net")
		if err := r.Purchase("owner@legit.net", id+".com", ""); err != nil {
			t.Fatal(err)
		}
		_, signer := ecotest.OwnerZone(t, w.Ecosystem, id+".com", "ns1.owner-"+id+".example")
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
		w.Expect(t, "laxmail.com", dnssec.DeploymentFull)
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
		r := w.Registrar(registrar.Policy{
			ID: "ticketreg", Name: "Ticket", NSHosts: []string{"ns1.ticket.net"},
			OwnerDNSSEC: true, DSChannel: channel.Ticket,
		})
		w.Buy(r, "a@x.net", "ticket.com")
		_, signer := ecotest.OwnerZone(t, w.Ecosystem, "ticket.com", "ns1.owner-t.example")
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
		w.Expect(t, "ticket.com", dnssec.DeploymentFull)
		// Ticket for someone else's domain is refused (authenticated panel).
		r.CreateAccount("b@x.net")
		err = r.HandleTicket(context.Background(), channel.TicketMessage{AccountEmail: "b@x.net", Domain: "ticket.com", Body: "ds"})
		if !errors.Is(err, registrar.ErrNotYourDomain) {
			t.Errorf("cross-account ticket: %v", err)
		}
	})

	t.Run("chat misapply", func(t *testing.T) {
		r := w.Registrar(registrar.Policy{
			ID: "chatreg", Name: "Chat", NSHosts: []string{"ns1.chat.net"},
			OwnerDNSSEC: true, DSChannel: channel.Chat, ChatErrorRate: 1.0,
		})
		w.Buy(r, "a@x.net", "mine.com")
		if err := r.Purchase("a@x.net", "victim.com", ""); err != nil {
			t.Fatal(err)
		}
		_, signer := ecotest.OwnerZone(t, w.Ecosystem, "mine.com", "ns1.owner-c.example")
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
		w.Expect(t, out.AppliedDomain, dnssec.DeploymentBroken)
	})
}

func TestDNSKEYUploadAndFetch(t *testing.T) {
	w := newWorld(t)

	t.Run("amazon-style DNSKEY upload", func(t *testing.T) {
		r := w.Registrar(registrar.Policy{
			ID: "aws-like", Name: "KeyUpload", NSHosts: []string{"ns1.keyup.net"},
			OwnerDNSSEC: true, DSChannel: channel.Web, AcceptsDNSKEY: true,
		})
		w.Buy(r, "a@x.net", "keyed.com")
		_, signer := ecotest.OwnerZone(t, w.Ecosystem, "keyed.com", "ns1.owner-k.example")
		if err := r.UseExternalNameservers("a@x.net", "keyed.com", []string{"ns1.owner-k.example"}); err != nil {
			t.Fatal(err)
		}
		if err := r.SubmitDNSKEYWeb(context.Background(), "a@x.net", "keyed.com", signer.KSK.DNSKEY()); err != nil {
			t.Fatal(err)
		}
		w.Expect(t, "keyed.com", dnssec.DeploymentFull)
		// "Not perfect": a DNSKEY that is NOT served is accepted too — and
		// produces a broken domain.
		other, err := dnssec.GenerateKeyPair(dnswire.AlgED25519, dnswire.FlagsKSK, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SubmitDNSKEYWeb(context.Background(), "a@x.net", "keyed.com", other.DNSKEY()); err != nil {
			t.Fatal(err)
		}
		w.Expect(t, "keyed.com", dnssec.DeploymentBroken)
	})

	t.Run("pcextreme-style DS fetch", func(t *testing.T) {
		r := w.Registrar(registrar.Policy{
			ID: "pcx-like", Name: "Fetcher", NSHosts: []string{"ns1.fetch.net"},
			OwnerDNSSEC: true, DSChannel: channel.Web, FetchesDNSKEY: true, ValidatesDS: true,
		})
		w.Buy(r, "a@x.net", "fetched.com")
		ecotest.OwnerZone(t, w.Ecosystem, "fetched.com", "ns1.owner-f.example")
		if err := r.UseExternalNameservers("a@x.net", "fetched.com", []string{"ns1.owner-f.example"}); err != nil {
			t.Fatal(err)
		}
		if err := r.RequestDSFetch(context.Background(), "a@x.net", "fetched.com"); err != nil {
			t.Fatal(err)
		}
		w.Expect(t, "fetched.com", dnssec.DeploymentFull)
		// Only bootstraps the first DS; rollover via fetch is refused.
		if err := r.RequestDSFetch(context.Background(), "a@x.net", "fetched.com"); !errors.Is(err, registrar.ErrNotSupported) {
			t.Errorf("second fetch: %v", err)
		}
	})

	t.Run("cancelled context stops registrar-side lookups", func(t *testing.T) {
		r := w.Registrar(registrar.Policy{
			ID: "pcx-cancel", Name: "FetcherC", NSHosts: []string{"ns1.fetchc.net"},
			OwnerDNSSEC: true, DSChannel: channel.Web, FetchesDNSKEY: true, ValidatesDS: true,
		})
		w.Buy(r, "a@x.net", "cancelled.com")
		ecotest.OwnerZone(t, w.Ecosystem, "cancelled.com", "ns1.owner-c.example")
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
		if got := w.Classify("cancelled.com"); got == dnssec.DeploymentFull {
			t.Error("DS installed despite cancelled context")
		}
	})
}

func TestResellerPath(t *testing.T) {
	w := newWorld(t)
	partner := w.Registrar(registrar.Policy{
		ID: "bigpartner", Name: "BigPartner", NSHosts: []string{"ns1.bigp.net"},
		Roles: map[string]registrar.Role{"com": {Kind: registrar.RoleRegistrar}},
	})
	reseller := w.Registrar(registrar.Policy{
		ID: "smallshop", Name: "SmallShop", NSHosts: []string{"ns1.small.net"},
		HostedDNSSEC: registrar.SupportDefault,
		Roles:        map[string]registrar.Role{"com": {Kind: registrar.RoleReseller, Partner: "bigpartner"}},
	})
	reseller.SetPartner("com", partner)
	w.Buy(reseller, "a@x.net", "resold.com")
	// The registry sees the PARTNER as the registrar of record.
	reg, ok := w.Registries["com"].Registration("resold.com")
	if !ok || reg.RegistrarID != "bigpartner" {
		t.Fatalf("registrar of record: %+v", reg)
	}
	// But the DNS operator is the reseller.
	if len(reg.NS) == 0 || dnswire.SecondLevel(reg.NS[0]) != "small.net" {
		t.Errorf("NS: %v", reg.NS)
	}
	w.Expect(t, "resold.com", dnssec.DeploymentFull)
}

func TestResellerPartnerWithoutDSSupport(t *testing.T) {
	// The TransIP/.se case: the partner registrar (KeySystems) enabled
	// DNSSEC "at a later date" — until then DS uploads fail and domains
	// stay partial.
	w := newWorld(t)
	enableDay := simtime.Date(2016, 7, 1)
	partner := w.Registrar(registrar.Policy{
		ID: "keysys-like", Name: "KeySys", NSHosts: []string{"ns1.keysys.net"},
		Roles:         map[string]registrar.Role{"se": {Kind: registrar.RoleRegistrar}},
		DSSupportFrom: enableDay,
	})
	reseller := w.Registrar(registrar.Policy{
		ID: "transip-like2", Name: "TransIPish", NSHosts: []string{"ns1.tip.net"},
		HostedDNSSEC: registrar.SupportDefault,
		Roles:        map[string]registrar.Role{"se": {Kind: registrar.RoleReseller, Partner: "keysys-like"}},
	})
	reseller.SetPartner("se", partner)
	w.Buy(reseller, "a@x.net", "late.se")
	// Before the partner supports DS: signed but partial.
	w.Expect(t, "late.se", dnssec.DeploymentPartial)
	// Advance past the enablement and retry.
	w.Clock.Set(enableDay + 1)
	if err := reseller.EnableHostedDNSSEC("a@x.net", "late.se", false); err != nil {
		t.Fatal(err)
	}
	w.Expect(t, "late.se", dnssec.DeploymentFull)
}

func TestBootstrapDSAPI(t *testing.T) {
	w := newWorld(t)
	r := w.Registrar(registrar.Policy{
		ID: "draftreg", Name: "Draft", NSHosts: []string{"ns1.draft.net"},
		OwnerDNSSEC: true, DSChannel: channel.Web,
	})
	w.Buy(r, "a@x.net", "drafted.com")
	_, signer := ecotest.OwnerZone(t, w.Ecosystem, "drafted.com", "ns1.owner-d.example")
	if err := r.UseExternalNameservers("a@x.net", "drafted.com", []string{"ns1.owner-d.example"}); err != nil {
		t.Fatal(err)
	}
	ds, _ := signer.DSRecords("drafted.com", dnswire.DigestSHA256)
	if err := r.BootstrapDS(context.Background(), "drafted.com", ds[0]); err != nil {
		t.Fatal(err)
	}
	w.Expect(t, "drafted.com", dnssec.DeploymentFull)
	// The draft mandates verification: an unserved DS is refused.
	garbage := &dnswire.DS{KeyTag: 2, Algorithm: dnswire.AlgED25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}
	if err := r.BootstrapDS(context.Background(), "drafted.com", garbage); !errors.Is(err, registrar.ErrDSRejected) {
		t.Errorf("garbage bootstrap: %v", err)
	}
}

func TestRolloverHostedDNSSEC(t *testing.T) {
	w := newWorld(t)
	r := w.Registrar(registrar.Policy{
		ID: "roller", Name: "Roller", NSHosts: []string{"ns1.roller.net"},
		HostedDNSSEC: registrar.SupportDefault,
	})
	w.Buy(r, "a@x.net", "spin.com")
	w.Expect(t, "spin.com", dnssec.DeploymentFull)
	regBefore, _ := w.Registries["com"].Registration("spin.com")
	if err := r.RolloverHostedDNSSEC("a@x.net", "spin.com"); err != nil {
		t.Fatal(err)
	}
	// Still fully deployed and valid after the rollover...
	w.Expect(t, "spin.com", dnssec.DeploymentFull)
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
	r2 := w.Registrar(registrar.Policy{
		ID: "noroll", Name: "NoRoll", NSHosts: []string{"ns1.noroll.net"},
	})
	w.Buy(r2, "a@x.net", "never.com")
	if err := r2.RolloverHostedDNSSEC("a@x.net", "never.com"); !errors.Is(err, registrar.ErrNotSupported) {
		t.Errorf("rollover without DNSSEC: %v", err)
	}
}

func TestRolloverPartialPublisherStaysPartial(t *testing.T) {
	// A Loopia-like registrar rolls keys for a TLD it never uploads DS
	// for: the domain must remain partial, never broken.
	w := newWorld(t)
	r := w.Registrar(registrar.Policy{
		ID: "partialroll", Name: "PartialRoll", NSHosts: []string{"ns1.proll.se"},
		HostedDNSSEC:  registrar.SupportDefault,
		PublishDSTLDs: map[string]bool{"se": true},
		Roles: map[string]registrar.Role{
			"com": {Kind: registrar.RoleRegistrar},
			"se":  {Kind: registrar.RoleRegistrar},
		},
	})
	w.Buy(r, "a@x.net", "quiet.com")
	w.Expect(t, "quiet.com", dnssec.DeploymentPartial)
	if err := r.RolloverHostedDNSSEC("a@x.net", "quiet.com"); err != nil {
		t.Fatal(err)
	}
	w.Expect(t, "quiet.com", dnssec.DeploymentPartial)
}

func TestRegistrarAccessors(t *testing.T) {
	w := newWorld(t)
	r := w.Registrar(registrar.Policy{
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
	w.Buy(r, "a@x.net", "acc.com")
	if !slices.Contains(r.DomainNames(), "acc.com") {
		t.Error("Domain lookup failed")
	}
	if err := r.RemoveDS("a@x.net", "acc.com"); err != nil {
		t.Errorf("RemoveDS on DS-less domain: %v", err)
	}
}
