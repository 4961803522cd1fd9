package scan_test

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/ecosystem"
	"securepki.org/registrarsec/internal/ecotest"
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
)

// buildWorld wires an ecosystem with registrars producing every deployment
// class, returning the ecosystem and the scan targets.
func buildWorld(t *testing.T) (*ecosystem.Ecosystem, []scan.Target) {
	w, targets := ecotest.ClassWorld(t)
	return w.Ecosystem, targets
}

func newScanner(t *testing.T, eco *ecosystem.Ecosystem, workers int) *scan.Scanner {
	t.Helper()
	s, err := scan.New(ecotest.ScanConfig(eco, workers))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScanClassifiesDeployments(t *testing.T) {
	eco, targets := buildWorld(t)
	s := newScanner(t, eco, 4)
	snap, health, err := s.ScanDay(context.Background(), eco.Clock.Day(), targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Records) != 9 { // ghost.com skipped
		t.Fatalf("records: %d", len(snap.Records))
	}
	if health.Measured != 9 || health.Unregistered != 1 || len(health.Failures) != 0 {
		t.Fatalf("health: %s", health)
	}
	if health.Targets != len(targets) {
		t.Errorf("health targets: %d, want %d", health.Targets, len(targets))
	}
	byDomain := map[string]*dataset.Record{}
	for i := range snap.Records {
		byDomain[snap.Records[i].Domain] = &snap.Records[i]
	}
	cases := map[string]dnssec.Deployment{
		"full1.com":  dnssec.DeploymentFull,
		"full2.com":  dnssec.DeploymentFull,
		"dutch.nl":   dnssec.DeploymentFull,
		"half1.com":  dnssec.DeploymentPartial,
		"half2.com":  dnssec.DeploymentPartial,
		"none1.com":  dnssec.DeploymentNone,
		"victim.com": dnssec.DeploymentBroken,
	}
	for domain, want := range cases {
		rec, ok := byDomain[domain]
		if !ok {
			t.Errorf("%s missing from snapshot", domain)
			continue
		}
		if got := rec.Deployment(); got != want {
			t.Errorf("%s: %v, want %v", domain, got, want)
		}
	}
	// Operator grouping from the NS observed at the TLD.
	if byDomain["full1.com"].Operator != "good.net" {
		t.Errorf("operator: %q", byDomain["full1.com"].Operator)
	}
	// RRSIG presence follows signing.
	if !byDomain["half1.com"].HasRRSIG || byDomain["none1.com"].HasRRSIG {
		t.Error("HasRRSIG wrong")
	}
	if s.Queries() == 0 {
		t.Error("query counter not advanced")
	}
}

func TestScanWorkerCountsAgree(t *testing.T) {
	eco, targets := buildWorld(t)
	base, _, err := newScanner(t, eco, 1).ScanDay(context.Background(), eco.Clock.Day(), targets)
	if err != nil {
		t.Fatal(err)
	}
	wide, _, err := newScanner(t, eco, 16).ScanDay(context.Background(), eco.Clock.Day(), targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Records) != len(wide.Records) {
		t.Errorf("worker counts disagree: %d vs %d", len(base.Records), len(wide.Records))
	}
	count := func(snap *dataset.Snapshot, d dnssec.Deployment) int {
		n := 0
		for i := range snap.Records {
			if snap.Records[i].Deployment() == d {
				n++
			}
		}
		return n
	}
	for _, d := range []dnssec.Deployment{
		dnssec.DeploymentNone, dnssec.DeploymentPartial,
		dnssec.DeploymentFull, dnssec.DeploymentBroken,
	} {
		if count(base, d) != count(wide, d) {
			t.Errorf("%v: %d vs %d", d, count(base, d), count(wide, d))
		}
	}
}

func TestScanContextCancel(t *testing.T) {
	eco, targets := buildWorld(t)
	s := newScanner(t, eco, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.ScanDay(ctx, eco.Clock.Day(), targets); err == nil {
		t.Error("cancelled scan reported success")
	}
}

// cancelOnFirstExchanger cancels the sweep's context on its first exchange
// and fails every exchange on a dead context — a deterministic mid-sweep
// SIGINT.
type cancelOnFirstExchanger struct {
	inner  exchange.Exchanger
	cancel context.CancelFunc
	once   sync.Once
}

func (e *cancelOnFirstExchanger) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	e.once.Do(e.cancel)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.inner.Exchange(ctx, server, q)
}

// TestScanCancelAccountsEveryTarget interrupts a sweep at its very first
// exchange and checks the ledger: no target may vanish — each is either
// measured, unregistered, skipped, or itemized as a failure, and the
// interruption surfaces as the distinct "cancelled" class.
func TestScanCancelAccountsEveryTarget(t *testing.T) {
	eco, targets := buildWorld(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := ecotest.ScanConfig(eco, 2)
	cfg.Exchange = &cancelOnFirstExchanger{inner: eco.Net, cancel: cancel}
	s, err := scan.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap, health, err := s.ScanDay(ctx, eco.Clock.Day(), targets)
	if err == nil {
		t.Fatal("interrupted scan reported success")
	}
	accounted := health.Measured + health.Unregistered + len(health.SkippedUnknownTLD) + len(health.Failures)
	if accounted != health.Targets {
		t.Errorf("ledger leak: %d targets, %d accounted (%s)", health.Targets, accounted, health)
	}
	if health.Cancelled() == 0 {
		t.Errorf("no cancelled class in %v", health.ByClass)
	}
	if health.Cancelled() != len(health.Failures) {
		t.Errorf("cancelled %d of %d failures; every failure of this run is a cancellation",
			health.Cancelled(), len(health.Failures))
	}
	// The snapshot carries the gap markers, none of them "measured".
	for i := range snap.Records {
		if r := &snap.Records[i]; !r.Failed || r.FailReason != string(scan.FailCancelled) {
			t.Errorf("record %s: Failed=%v reason=%q", r.Domain, r.Failed, r.FailReason)
		}
	}
}

// TestSweepHealthMerge checks the shard-aggregation arithmetic.
func TestSweepHealthMerge(t *testing.T) {
	a := &scan.SweepHealth{Targets: 5, Measured: 4, Unregistered: 1,
		Exchange: exchange.Counters{Retry: exchange.RetryCounters{Retries: 2}},
		ByClass:  map[scan.FailClass]int{scan.FailTimeout: 1}}
	b := &scan.SweepHealth{Targets: 3, Measured: 2, Resweeps: 1,
		Failures: []scan.Failure{{Class: scan.FailTimeout}},
		ByClass:  map[scan.FailClass]int{scan.FailTimeout: 1}}
	var sum scan.SweepHealth
	sum.Merge(a)
	sum.Merge(b)
	sum.Merge(nil)
	if sum.Targets != 8 || sum.Measured != 6 || sum.Unregistered != 1 ||
		sum.Exchange.Retry.Retries != 2 || sum.Resweeps != 1 || len(sum.Failures) != 1 ||
		sum.ByClass[scan.FailTimeout] != 2 {
		t.Errorf("merge: %+v", sum)
	}
}

func TestScanConfigValidation(t *testing.T) {
	if _, err := scan.New(scan.Config{}); err == nil {
		t.Error("config without exchanger accepted")
	}
	eco, _ := buildWorld(t)
	if _, err := scan.New(scan.Config{Exchange: eco.Net}); err == nil {
		t.Error("config without TLD servers accepted")
	}
}

func TestTargetsFromDomains(t *testing.T) {
	ts := scan.TargetsFromDomains([]string{"A.COM", "b.nl", "justtld"})
	if len(ts) != 3 {
		t.Fatalf("targets: %v", ts)
	}
	if ts[0].Domain != "a.com" || ts[0].TLD != "com" {
		t.Errorf("target 0: %+v", ts[0])
	}
	if ts[2].TLD != "" {
		t.Errorf("single-label target: %+v", ts[2])
	}
}

// TestAXFRDrivenScan reproduces the paper's actual pipeline head: obtain
// the TLD zone file (AXFR under agreement), derive the target list from its
// delegations, then sweep.
func TestAXFRDrivenScan(t *testing.T) {
	eco, _ := buildWorld(t)
	auth := eco.Registries["com"].Server()
	auth.EnableAXFR(func(origin string) bool { return origin == "com" })
	srv := &dnsserver.Server{Handler: auth}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := &dnsserver.AXFRClient{}
	z, err := client.Transfer(context.Background(), srv.Addr(), "com")
	if err != nil {
		t.Fatal(err)
	}
	// The targets are the delegations directly below the apex.
	var targets []scan.Target
	z.RRSets(func(name string, typ dnswire.Type, _ []*dnswire.RR) {
		if parent, _ := dnswire.Parent(name); typ == dnswire.TypeNS && parent == "com" {
			targets = append(targets, scan.Target{Domain: name, TLD: "com"})
		}
	})
	if len(targets) != 8 {
		t.Fatalf("targets from AXFR: %d", len(targets))
	}
	s := newScanner(t, eco, 4)
	snap, _, err := s.ScanDay(context.Background(), eco.Clock.Day(), targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Records) != 8 {
		t.Fatalf("scanned %d", len(snap.Records))
	}
	full := 0
	for i := range snap.Records {
		if snap.Records[i].Deployment() == dnssec.DeploymentFull {
			full++
		}
	}
	if full != 2 { // full1.com, full2.com (dutch.nl is outside .com)
		t.Errorf("full count via AXFR-driven scan: %d", full)
	}
}

// TestHostileReferralFailsMalformed: a referral naming an NS host that an
// archive line cannot carry fails its target as malformed instead of
// corrupting the day. Each host here once did: a tab split the line into
// ten fields and quarantined the whole section, a comma split one host in
// two, the root name read back as no hosts, and "=0" would read back as
// another record's NS set.
func TestHostileReferralFailsMalformed(t *testing.T) {
	hosts := map[string]string{
		"tab.test":   "ns\t1.evil.test",
		"comma.test": "ns1.evil.test,ns2.evil.test",
		"root.test":  "",
		"ref.test":   "=0",
		"good.test":  "ns1.good.test",
	}
	net := dnsserver.NewMemNet()
	net.Register("tld.test", dnsserver.HandlerFunc(func(q *dnswire.Message) *dnswire.Message {
		resp := q.Reply()
		if name := q.Questions[0].Name; q.Questions[0].Type == dnswire.TypeNS {
			resp.Authority = append(resp.Authority, dnswire.NewRR(name, 300, &dnswire.NS{Host: hosts[name]}))
		}
		return resp
	}))
	// Every named host answers, so that only the line can fail a target.
	for _, h := range hosts {
		net.Register(h, dnsserver.HandlerFunc(func(q *dnswire.Message) *dnswire.Message { return q.Reply() }))
	}
	s, err := scan.New(scan.Config{
		Exchange:   net,
		TLDServers: map[string]string{"test": "tld.test"},
		Workers:    2,
		Clock:      func() simtime.Day { return simtime.End },
	})
	if err != nil {
		t.Fatal(err)
	}
	var targets []scan.Target
	for domain := range hosts {
		targets = append(targets, scan.Target{Domain: domain, TLD: "test"})
	}
	snap, _, err := s.ScanDay(context.Background(), simtime.End, targets)
	if err != nil {
		t.Fatal(err)
	}
	snap.Canonicalize()
	for _, r := range snap.Records {
		if malformed := r.Domain != "good.test"; r.Failed != malformed || malformed && r.FailReason != string(scan.FailMalformed) {
			t.Errorf("%s (NS host %q): failed %v (%q)", r.Domain, hosts[r.Domain], r.Failed, r.FailReason)
		}
	}
	var section bytes.Buffer
	if err := snap.WriteArchiveSection(&section); err != nil {
		t.Fatal(err)
	}
	store, err := dataset.ReadArchiveStrict(&section)
	if err != nil {
		t.Fatal(err)
	}
	if got := store.Get(simtime.End); got == nil || !reflect.DeepEqual(got.Records, snap.Records) {
		t.Fatalf("the day reads back as %+v, want %+v", got, snap.Records)
	}
}
