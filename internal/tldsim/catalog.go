package tldsim

import (
	"securepki.org/registrarsec/internal/channel"
	"securepki.org/registrarsec/internal/registrar"
	"securepki.org/registrarsec/internal/simtime"
)

// This file encodes the paper's empirical registrar catalogue: the top-20
// registrars by market share (Table 2), the top-10 registrars by number of
// DNSKEY-publishing domains (Table 3), the registrar/reseller role matrix
// (Table 4), the parking services and third-party operators of section
// 5.1, and the per-registrar adoption dynamics read off Figures 4-8.
//
// Domain counts are the paper's December 31, 2016 values (unscaled; the
// world builder applies WorldConfig.Scale). Behavioural profiles carry the
// paper-reported endpoints as calibration constants; each is annotated with
// its source.

var (
	// GTLDs are the generic TLDs of the study.
	GTLDs = []string{"com", "net", "org"}
	// AllTLDs is the full set, in the paper's order.
	AllTLDs = []string{"com", "net", "org", "nl", "se"}
)

// TLDTotals are the Table 1 population sizes on 2016-12-31.
var TLDTotals = map[string]int{
	"com": 118_147_199,
	"net": 13_773_903,
	"org": 9_682_750,
	"nl":  5_674_208,
	"se":  1_388_372,
}

// TLDKeyPct are the Table 1 "% with DNSKEY" targets on 2016-12-31.
var TLDKeyPct = map[string]float64{
	"com": 0.7,
	"net": 1.0,
	"org": 1.1,
	"nl":  51.6,
	"se":  46.7,
}

// gtldShare splits a combined .com/.net/.org count by the global TLD size
// ratio, since Table 2/3 report combined counts.
func gtldShare(total int) []struct {
	TLD string
	N   int
} {
	sum := TLDTotals["com"] + TLDTotals["net"] + TLDTotals["org"]
	net := total * TLDTotals["net"] / sum
	org := total * TLDTotals["org"] / sum
	return []struct {
		TLD string
		N   int
	}{
		{"com", total - net - org},
		{"net", net},
		{"org", org},
	}
}

// Cohort is one (operator, TLD) domain population with its adoption
// behaviour.
type Cohort struct {
	// Registrar is the display name ("OVH"); empty for anonymous tail
	// operators.
	Registrar string
	// Operator is the grouped NS identity ("ovh.net").
	Operator string
	TLD      string
	// Domains is the unscaled population size.
	Domains int
	// Key is the DNSKEY-adoption profile; DS the DS-upload behaviour.
	Key Profile
	DS  DSSpec
	// ExpiredSigFrac is the fraction of signed domains serving RRSIGs whose
	// validity window has lapsed — the signing-hygiene failure mode prior
	// misconfiguration studies report alongside missing DS records.
	ExpiredSigFrac float64
}

// nsFor maps an operator group to a concrete nameserver hostname for
// materialized zones.
func nsFor(operator string) string { return nsPrefix + operator }

// nsPrefix is what nsFor puts before an operator's name.
const nsPrefix = "ns1."

// NSHostOf exposes the operator→nameserver mapping for tests and tools
// that need to address one operator's server directly.
func NSHostOf(operator string) string { return nsFor(operator) }

// pcxStepDay is PCExtreme's observed mass enablement (March 2015, jumping
// 0.44%→98.3% within ten days).
var pcxStepDay = simtime.Date(2015, 3, 15)

// antagonistSwitchDay is Antagonist's partner switch to OpenProvider
// (December 2014); migration happens at each domain's renewal.
var antagonistSwitchDay = simtime.Date(2014, 12, 1)

// keySystemsDSDay is when TransIP's .se partner "enabled DNSSEC at a later
// date" (calibrated to land the 48.4% end-of-window full rate).
var keySystemsDSDay = simtime.Date(2016, 1, 15)

// NamedCohorts returns every named (operator, TLD) cohort.
func NamedCohorts() []Cohort {
	var out []Cohort
	// addGTLD splits a combined gTLD population across com/net/org with a
	// shared profile.
	addGTLD := func(registrar, operator string, total int, key Profile, ds DSSpec) {
		for _, sh := range gtldShare(total) {
			out = append(out, Cohort{Registrar: registrar, Operator: operator, TLD: sh.TLD, Domains: sh.N, Key: key, DS: ds})
		}
	}
	add := func(registrar, operator, tld string, n int, key Profile, ds DSSpec) {
		out = append(out, Cohort{Registrar: registrar, Operator: operator, TLD: tld, Domains: n, Key: key, DS: ds})
	}
	none := Flat(0)
	withDS := DSSpec{Mode: DSWithKey}

	// ---- Table 2: top-20 registrars by market share (combined gTLD). ----
	// GoDaddy: paid add-on; 8,139 of 37.65M signed (0.02%), flat (Fig. 4).
	addGTLD("GoDaddy", "domaincontrol.com", 37_652_477, Flat(0.000216), withDS)
	addGTLD("Alibaba", "hichina.com", 4_292_138, Flat(0.0000007), withDS)
	addGTLD("1AND1", "1and1", 3_802_824, none, withDS)
	addGTLD("Network Solutions", "worldnic.com", 2_534_673, none, withDS)
	// eNom: 10 DNSKEY domains.
	addGTLD("eNom", "name-services.com", 2_525_828, Flat(0.000004), withDS)
	addGTLD("Bluehost", "bluehost.com", 2_066_503, none, withDS)
	// NameCheap: DNSSEC by default on premium plans only; 13,232 DNSKEY
	// domains; publishes DS for .com/.net but not .org (Table 3).
	for _, sh := range gtldShare(1_963_717) {
		ds := withDS
		if sh.TLD == "org" {
			ds = DSSpec{Mode: DSNever}
		}
		add("NameCheap", "registrar-servers.com", sh.TLD, sh.N, Linear(0.0045, 0.00674), ds)
	}
	addGTLD("WIX", "wixdns.net", 1_887_139, none, withDS)
	addGTLD("HostGator", "hostgator.com", 1_849_735, none, withDS)
	addGTLD("NameBright", "namebrightdns.com", 1_823_823, none, withDS)
	addGTLD("register.com", "register.com", 1_311_969, none, withDS)
	// OVH: free opt-in; Figure 4 shows DNSKEY+DS rising ~18%→25.9%. The
	// fleet splits across two NS groups (ovh.net / anycast.me, Table 3).
	ovhKey := Linear(0.21, 0.302)
	ovhDS := DSSpec{Mode: DSWithKey, Prob: 0.87}
	addGTLD("OVH", "ovh.net", 1_056_000, ovhKey, ovhDS)
	addGTLD("OVH", "anycast.me", 172_578, ovhKey, ovhDS)
	addGTLD("DreamHost", "dreamhost.com", 1_117_902, Flat(0.000002), withDS)
	addGTLD("WordPress", "wordpress.com", 888_174, Flat(0.0000034), withDS)
	addGTLD("Amazon", "awsdns", 865_065, none, withDS)
	addGTLD("Xinnet", "xincache.com", 836_293, none, withDS)
	// Google: 1,945 DNSKEY domains (Cloud DNS alpha participants).
	addGTLD("Google", "googledomains.com", 813_945, Flat(0.00239), withDS)
	addGTLD("123-reg", "123-reg.co.uk", 720_435, Flat(0.0000014), withDS)
	addGTLD("Yahoo", "yahoo.com", 690_823, none, withDS)
	addGTLD("Rightside", "name.com", 663_616, none, withDS)

	// ---- Parking services (footnote 11): no DNSSEC at all. ----
	for _, p := range []struct {
		name, op string
		n        int
	}{
		{"Ename", "ename.com", 1_604_676},
		{"BuyDomains", "buydomains.com", 1_190_973},
		{"SedoParking", "sedoparking.com", 1_186_838},
		{"DomainNameSales", "domainnamesales.com", 1_081_944},
		{"CashParking", "cashparking.com", 1_012_114},
		{"HugeDomains", "hugedomains.com", 807_607},
		{"ParkingCrew", "parkingcrew.net", 660_081},
		{"RookMedia", "rookmedia.net", 619_254},
		{"ztomy", "ztomy.com", 631_381},
	} {
		addGTLD(p.name, p.op, p.n, none, withDS)
	}

	// ---- Third-party DNS operators (section 7). ----
	addGTLD("DNSPod", "dnspod.net", 2_309_215, none, withDS)
	// Cloudflare: universal DNSSEC launched 2015-11-11; 1.9% of domains
	// have DNSKEYs by the end of the window, and only ~60.7% of those ever
	// get their DS relayed to the registrar (Figure 8).
	addGTLD("Cloudflare", "cloudflare.com", 1_561_687,
		Launch(0.019, simtime.CloudflareUniversalDNSSEC),
		DSSpec{Mode: DSRelay, Prob: 0.622, LagMeanDays: 10, BrokenFrac: 0.01})

	// ---- Table 3: DNSSEC-heavy registrars, gTLD populations. ----
	// Loopia signs everything but publishes DS only for .se → its 131,726
	// gTLD DNSKEY domains are all partial (Figure 5).
	addGTLD("Loopia", "loopia.se", 135_000, Linear(0.93, 0.976), DSSpec{Mode: DSNever})
	addGTLD("DomainNameShop", "hyp.net", 97_000, Linear(0.92, 0.97), withDS)
	// TransIP: 99.2% full where it is itself the registrar (Figure 7).
	tipDS := DSSpec{Mode: DSWithKey, Prob: 0.997}
	addGTLD("TransIP", "transip.net", 93_000, Linear(0.95, 0.98), tipDS)
	addGTLD("TransIP", "transip.nl", 48_000, Linear(0.95, 0.98), tipDS)
	// MeshDigital: signs by default but uploaded a DS for only 4 of 60,425
	// domains.
	addGTLD("MeshDigital", "domainmonster.com", 62_000, Linear(0.93, 0.975),
		DSSpec{Mode: DSWithKey, Prob: 0.0001})
	// Binero: 37.8% of its gTLD domains fully deployed (Figure 6).
	addGTLD("Binero", "binero.se", 100_000, Linear(0.42, 0.45),
		DSSpec{Mode: DSWithKey, Prob: 0.84})
	// KPN: signs everywhere, DS only for .nl (Figure 5).
	addGTLD("KPN", "is.nl", 16_100, Linear(0.95, 0.978), DSSpec{Mode: DSNever})
	// PCExtreme: the March 2015 step, 0.44%→98.3% in ten days, 97.0%
	// sustained (Figure 7).
	addGTLD("PCExtreme", "pcextreme.nl", 15_300,
		Step(0.0044, 0.983, pcxStepDay, 10), DSSpec{Mode: DSWithKey, Prob: 0.987})
	// Antagonist: renewal-driven migration after the December 2014 partner
	// switch, reaching 52.7% (Figure 6).
	addGTLD("Antagonist", "webhostingserver.nl", 28_000,
		Renewal(0.02, 0.527, antagonistSwitchDay), withDS)

	// ---- ccTLD populations (.nl / .se), incentive-driven (Figure 5-7). ----
	add("TransIP", "transip.nl", "nl", 700_000, Linear(0.97, 0.992), tipDS)
	add("KPN", "is.nl", "nl", 400_000, Linear(0.94, 0.97), withDS)
	add("Antagonist", "webhostingserver.nl", "nl", 150_000, Linear(0.90, 0.954), withDS)
	add("PCExtreme", "pcextreme.nl", "nl", 60_000, Step(0.02, 0.983, pcxStepDay, 10), withDS)
	add("OVH", "ovh.net", "nl", 50_000, ovhKey, ovhDS)
	add("GoDaddy", "domaincontrol.com", "nl", 100_000, Flat(0.000216), withDS)

	add("Loopia", "loopia.se", "se", 250_000, Linear(0.90, 0.952), withDS)
	add("Binero", "binero.se", "se", 140_000, Linear(0.90, 0.929), withDS)
	// TransIP resells .se through KeySystems, which enabled DS handling
	// only in 2016; uploads complete at each domain's next renewal,
	// landing at 48.4% full by the window end (Figure 7).
	add("TransIP", "transip.net", "se", 40_000, Linear(0.95, 0.98),
		DSSpec{Mode: DSFromDay, Day: keySystemsDSDay, Prob: 0.52})
	add("GoDaddy", "domaincontrol.com", "se", 30_000, Flat(0.000216), withDS)
	add("OVH", "ovh.net", "se", 20_000, ovhKey, ovhDS)

	return out
}

// RegistrarSpec pairs a probe-able policy with catalogue metadata.
type RegistrarSpec struct {
	Policy registrar.Policy
	// Top20 marks Table 2 membership; Top10DNSSEC marks Table 3.
	Top20       bool
	Top10DNSSEC bool
	// Partner marks pure partner registrars (Ascio, OpenProvider,
	// KeySystems) that the paper's resellers route through.
	Partner bool
	// GTLDDomains is the combined .com/.net/.org domain count (Table 2).
	GTLDDomains int
	// DNSKEYDomains is the combined gTLD DNSKEY count (Table 3).
	DNSKEYDomains int
}

// roleSelf marks direct accreditation for the given TLDs.
func roleSelf(tlds ...string) map[string]registrar.Role {
	out := make(map[string]registrar.Role, len(tlds))
	for _, tld := range tlds {
		out[tld] = registrar.Role{Kind: registrar.RoleRegistrar}
	}
	return out
}

// via adds reseller roles through a partner.
func via(roles map[string]registrar.Role, partner string, tlds ...string) map[string]registrar.Role {
	for _, tld := range tlds {
		roles[tld] = registrar.Role{Kind: registrar.RoleReseller, Partner: partner}
	}
	return roles
}

// RegistrarSpecs returns the full probe-able catalogue: the Table 2 top-20,
// the Table 3 top-10, and the partner registrars of Table 4. Policies
// transcribe the tables' cells; roles transcribe Table 4.
func RegistrarSpecs() []RegistrarSpec {
	all5 := roleSelf("com", "net", "org", "nl", "se")
	_ = all5
	specs := []RegistrarSpec{
		// -------------------- partners (Table 4, grey cells) ------------
		{Partner: true, Policy: registrar.Policy{
			ID: "ascio", Name: "Ascio", NSHosts: []string{"ns1.ascio.net"},
			OwnerDNSSEC: true, DSChannel: channel.Web,
			Roles: roleSelf("com", "net", "org", "nl", "se"),
		}},
		{Partner: true, Policy: registrar.Policy{
			ID: "openprovider", Name: "Open Provider", NSHosts: []string{"ns1.openprovider.nl"},
			OwnerDNSSEC: true, DSChannel: channel.Web,
			Roles: roleSelf("com", "net", "org", "nl", "se"),
		}},
		{Partner: true, Policy: registrar.Policy{
			ID: "keysystems", Name: "Key Systems", NSHosts: []string{"ns1.key-systems.net"},
			OwnerDNSSEC: true, DSChannel: channel.Web,
			Roles:         roleSelf("com", "net", "org", "se"),
			DSSupportFrom: keySystemsDSDay,
		}},

		// -------------------- Table 2: top-20 ---------------------------
		{Top20: true, GTLDDomains: 37_652_477, DNSKEYDomains: 8_139, Policy: registrar.Policy{
			ID: "godaddy", Name: "GoDaddy", NSHosts: []string{"ns01.domaincontrol.com", "ns02.domaincontrol.com"},
			HostedDNSSEC: registrar.SupportPaid, DNSSECFee: 35,
			OwnerDNSSEC: true, DSChannel: channel.Web, ValidatesDS: false,
			Roles: roleSelf("com", "net", "org", "nl", "se"),
		}},
		{Top20: true, GTLDDomains: 4_292_138, DNSKEYDomains: 3, Policy: registrar.Policy{
			ID: "alibaba", Name: "Alibaba", NSHosts: []string{"dns1.hichina.com"},
			Roles: roleSelf("com", "net", "org"),
		}},
		{Top20: true, GTLDDomains: 3_802_824, Policy: registrar.Policy{
			ID: "1and1", Name: "1AND1", NSHosts: []string{"ns-1and1.co.uk"},
			Roles: roleSelf("com", "net", "org"),
		}},
		{Top20: true, GTLDDomains: 2_534_673, Policy: registrar.Policy{
			ID: "netsol", Name: "Network Solutions", NSHosts: []string{"ns1.worldnic.com"},
			Roles: roleSelf("com", "net", "org"),
		}},
		// eNom: owner DS via email; validates the email (code) but not the
		// DS record itself.
		{Top20: true, GTLDDomains: 2_525_828, DNSKEYDomains: 10, Policy: registrar.Policy{
			ID: "enom", Name: "eNom", NSHosts: []string{"dns1.name-services.com"},
			OwnerDNSSEC: true, DSChannel: channel.Email,
			EmailAuth: registrar.EmailAuthCode, ValidatesDS: false,
			Roles: roleSelf("com", "net", "org"),
		}},
		{Top20: true, GTLDDomains: 2_066_503, Policy: registrar.Policy{
			ID: "bluehost", Name: "Bluehost", NSHosts: []string{"ns1.bluehost.com"},
			Roles: roleSelf("com", "net", "org"),
		}},
		// NameCheap: DNSSEC by default only on premium plans; .org resold
		// through eNom (Table 4).
		{Top20: true, Top10DNSSEC: true, GTLDDomains: 1_963_717, DNSKEYDomains: 13_232, Policy: registrar.Policy{
			ID: "namecheap", Name: "NameCheap", NSHosts: []string{"dns1.registrar-servers.com"},
			HostedDNSSEC:  registrar.SupportDefaultSomePlans,
			DNSSECPlans:   map[string]bool{"premiumdns": true},
			DefaultPlan:   "freedns",
			PublishDSTLDs: map[string]bool{"com": true, "net": true},
			OwnerDNSSEC:   true, DSChannel: channel.Web, ValidatesDS: false,
			Roles: via(roleSelf("com", "net"), "enom", "org"),
		}},
		{Top20: true, GTLDDomains: 1_887_139, Policy: registrar.Policy{
			ID: "wix", Name: "WIX", NSHosts: []string{"ns1.wixdns.net"},
			Roles: roleSelf("com", "net", "org"),
		}},
		// HostGator: DS conveyed by pasting it into a live chat; the agent
		// error model reproduces the mis-installation anecdote.
		{Top20: true, GTLDDomains: 1_849_735, Policy: registrar.Policy{
			ID: "hostgator", Name: "HostGator", NSHosts: []string{"ns1.hostgator.com"},
			OwnerDNSSEC: true, DSChannel: channel.Chat, ChatErrorRate: 0.02,
			Roles: roleSelf("com", "net", "org"),
		}},
		// NameBright: email channel with no authentication at all.
		{Top20: true, GTLDDomains: 1_823_823, Policy: registrar.Policy{
			ID: "namebright", Name: "NameBright", NSHosts: []string{"ns1.namebrightdns.com"},
			OwnerDNSSEC: true, DSChannel: channel.Email,
			EmailAuth: registrar.EmailAuthNone,
			Roles:     roleSelf("com", "net", "org"),
		}},
		{Top20: true, GTLDDomains: 1_311_969, Policy: registrar.Policy{
			ID: "registercom", Name: "register.com", NSHosts: []string{"dns1.register.com"},
			Roles: roleSelf("com", "net", "org"),
		}},
		// OVH: free opt-in DNSSEC when hosting; validates uploaded DS (one
		// of only two in Table 2).
		{Top20: true, Top10DNSSEC: true, GTLDDomains: 1_228_578, DNSKEYDomains: 371_961, Policy: registrar.Policy{
			ID: "ovh", Name: "OVH", NSHosts: []string{"dns1.ovh.net", "ns1.anycast.me"},
			HostedDNSSEC: registrar.SupportOptIn,
			OwnerDNSSEC:  true, DSChannel: channel.Web, ValidatesDS: true,
			Roles: roleSelf("com", "net", "org", "nl", "se"),
		}},
		// DreamHost: email channel, validates the DS but not the email.
		{Top20: true, GTLDDomains: 1_117_902, Policy: registrar.Policy{
			ID: "dreamhost", Name: "DreamHost", NSHosts: []string{"ns1.dreamhost.com"},
			OwnerDNSSEC: true, DSChannel: channel.Email,
			EmailAuth: registrar.EmailAuthNone, ValidatesDS: true,
			Roles: roleSelf("com", "net", "org"),
		}},
		{Top20: true, GTLDDomains: 888_174, DNSKEYDomains: 3, Policy: registrar.Policy{
			ID: "wordpress", Name: "WordPress", NSHosts: []string{"ns1.wordpress.com"},
			Roles: roleSelf("com", "net", "org"),
		}},
		// Amazon: customers upload a DNSKEY; Route 53 derives the DS.
		{Top20: true, GTLDDomains: 865_065, Policy: registrar.Policy{
			ID: "amazon", Name: "Amazon", NSHosts: []string{"ns-1.awsdns-01.com"},
			OwnerDNSSEC: true, DSChannel: channel.Web, AcceptsDNSKEY: true,
			Roles: roleSelf("com", "net", "org"),
		}},
		{Top20: true, GTLDDomains: 836_293, Policy: registrar.Policy{
			ID: "xinnet", Name: "Xinnet", NSHosts: []string{"ns1.xincache.com"},
			Roles: roleSelf("com", "net", "org"),
		}},
		{Top20: true, GTLDDomains: 813_945, DNSKEYDomains: 1_945, Policy: registrar.Policy{
			ID: "google", Name: "Google", NSHosts: []string{"ns1.googledomains.com"},
			OwnerDNSSEC: true, DSChannel: channel.Web, ValidatesDS: false,
			Roles: roleSelf("com", "net", "org"),
		}},
		// 123-reg: DS attached to a support ticket.
		{Top20: true, GTLDDomains: 720_435, DNSKEYDomains: 1, Policy: registrar.Policy{
			ID: "123reg", Name: "123-reg", NSHosts: []string{"ns1.123-reg.co.uk"},
			OwnerDNSSEC: true, DSChannel: channel.Ticket, ValidatesDS: false,
			Roles: roleSelf("com", "net", "org"),
		}},
		{Top20: true, GTLDDomains: 690_823, Policy: registrar.Policy{
			ID: "yahoo", Name: "Yahoo", NSHosts: []string{"ns1.yahoo.com"},
			Roles: roleSelf("com", "net", "org"),
		}},
		{Top20: true, GTLDDomains: 663_616, Policy: registrar.Policy{
			ID: "rightside", Name: "Rightside", NSHosts: []string{"ns1.name.com"},
			OwnerDNSSEC: true, DSChannel: channel.Web, ValidatesDS: false,
			Roles: roleSelf("com", "net", "org"),
		}},

		// -------------------- Table 3: remaining top-10 DNSSEC ----------
		// Loopia: signs by default everywhere, publishes DS only for .se;
		// owner DS via authenticated email; resells gTLDs and .nl through
		// Ascio.
		{Top10DNSSEC: true, DNSKEYDomains: 131_726, Policy: registrar.Policy{
			ID: "loopia", Name: "Loopia", NSHosts: []string{"ns1.loopia.se"},
			HostedDNSSEC:  registrar.SupportDefault,
			PublishDSTLDs: map[string]bool{"se": true},
			OwnerDNSSEC:   true, DSChannel: channel.Email,
			EmailAuth: registrar.EmailAuthCode, ValidatesDS: false,
			Roles: via(roleSelf("se"), "ascio", "com", "net", "org", "nl"),
		}},
		{Top10DNSSEC: true, DNSKEYDomains: 94_084, Policy: registrar.Policy{
			ID: "domainnameshop", Name: "DomainNameShop", NSHosts: []string{"ns1.hyp.net"},
			HostedDNSSEC: registrar.SupportDefault,
			OwnerDNSSEC:  true, DSChannel: channel.Web, ValidatesDS: false,
			Roles: roleSelf("com", "net", "org"),
		}},
		// TransIP: registrar for com/net/org/nl, reseller of .se via
		// KeySystems.
		{Top10DNSSEC: true, DNSKEYDomains: 138_110, Policy: registrar.Policy{
			ID: "transip", Name: "TransIP", NSHosts: []string{"ns0.transip.net", "ns1.transip.nl"},
			HostedDNSSEC: registrar.SupportDefault,
			OwnerDNSSEC:  true, DSChannel: channel.Web, ValidatesDS: false,
			Roles: via(roleSelf("com", "net", "org", "nl"), "keysystems", "se"),
		}},
		// MeshDigital: signs everything, essentially never uploads the DS;
		// owner DS via unauthenticated email.
		{Top10DNSSEC: true, DNSKEYDomains: 60_425, Policy: registrar.Policy{
			ID: "meshdigital", Name: "MeshDigital", NSHosts: []string{"ns1.domainmonster.com"},
			HostedDNSSEC:  registrar.SupportDefault,
			PublishDSTLDs: map[string]bool{},
			OwnerDNSSEC:   true, DSChannel: channel.Email,
			EmailAuth: registrar.EmailAuthNone,
			Roles:     roleSelf("com", "net", "org", "nl"),
		}},
		// Binero: default signing; owner DS via email that is not
		// authenticated at all — the registrar that accepted a DS from a
		// different address (section 6.4).
		{Top10DNSSEC: true, DNSKEYDomains: 44_650, Policy: registrar.Policy{
			ID: "binero", Name: "Binero", NSHosts: []string{"ns1.binero.se"},
			HostedDNSSEC: registrar.SupportDefault,
			OwnerDNSSEC:  true, DSChannel: channel.Email,
			EmailAuth: registrar.EmailAuthNone, ValidatesDS: false,
			Roles: roleSelf("com", "net", "org", "se"),
		}},
		// KPN: default signing (DS only for .nl); no owner-operated DNSSEC.
		{Top10DNSSEC: true, DNSKEYDomains: 15_738, Policy: registrar.Policy{
			ID: "kpn", Name: "KPN", NSHosts: []string{"ns1.is.nl"},
			HostedDNSSEC:  registrar.SupportDefault,
			PublishDSTLDs: map[string]bool{"nl": true},
			OwnerDNSSEC:   false,
			Roles:         via(via(roleSelf("nl"), "ascio", "com", "net", "org"), "openprovider", "se"),
		}},
		// PCExtreme: default signing; fetches the customer's DNSKEY and
		// derives the DS itself — the paper's recommended flow.
		{Top10DNSSEC: true, DNSKEYDomains: 14_967, Policy: registrar.Policy{
			ID: "pcextreme", Name: "PCExtreme", NSHosts: []string{"ns1.pcextreme.nl"},
			HostedDNSSEC: registrar.SupportDefault,
			OwnerDNSSEC:  true, FetchesDNSKEY: true, ValidatesDS: true,
			Roles: via(roleSelf("nl"), "openprovider", "com", "net", "org"),
		}},
		// Antagonist: default signing; intentionally no owner DS upload.
		{Top10DNSSEC: true, DNSKEYDomains: 14_806, Policy: registrar.Policy{
			ID: "antagonist", Name: "Antagonist", NSHosts: []string{"ns1.webhostingserver.nl"},
			HostedDNSSEC: registrar.SupportDefault,
			OwnerDNSSEC:  false,
			Roles:        via(roleSelf("nl"), "openprovider", "com", "net", "org"),
		}},
	}
	return specs
}
