package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
	"securepki.org/registrarsec/internal/zone"
)

// The probes time one layer's public functions directly, on inputs taken
// from the workload's own state (its materialized zones, its query mix, its
// archive). They run only in a traced run, after the stages, and feed the
// per-layer metrics that no span around a stage call can isolate.

// perOp calls fn repeatedly for at least budget (and at least once) and
// returns the mean time per call.
func perOp(budget time.Duration, fn func()) time.Duration {
	n := 0
	start := time.Now()
	for {
		fn()
		n++
		if el := time.Since(start); el >= budget {
			return el / time.Duration(n)
		}
	}
}

// probeCrypto times key generation, RRset signing, verification and DS
// digests with the simulation's algorithm (Ed25519) on the DS or NS RRset of
// a delegation from the workload's TLD zone, and a whole-zone sign on one of
// its child zones.
func probeCrypto(m *metricSet, rig *serveRig, budget time.Duration) error {
	d := rig.domains[0]
	tz := rig.zones[d.TLD]
	rrs := tz.Lookup(d.Name, dnswire.TypeDS)
	if len(rrs) == 0 {
		rrs = tz.Lookup(d.Name, dnswire.TypeNS)
	}
	if len(rrs) == 0 {
		return fmt.Errorf("probe: no RRset at %s", d.Name)
	}
	var key *dnssec.KeyPair
	var err error
	m.set("dnssec.keygen_us", "us", us(perOp(budget, func() {
		key, err = dnssec.GenerateKeyPair(dnswire.AlgED25519, dnswire.FlagsZSK, nil)
	})))
	if err != nil {
		return err
	}
	now := simtime.End.Time()
	opts := dnssec.SignOptions{Inception: now.Add(-time.Hour), Expiration: now.Add(24 * time.Hour)}
	var sig *dnswire.RR
	m.set("dnssec.sign_us", "us", us(perOp(budget, func() {
		sig, err = dnssec.SignRRSet(rrs, key, d.TLD, opts)
	})))
	if err != nil {
		return err
	}
	m.set("dnssec.verify_us", "us", us(perOp(budget, func() {
		err = dnssec.VerifyRRSet(rrs, sig.Data.(*dnswire.RRSIG), key.DNSKEY(), now)
	})))
	if err != nil {
		return fmt.Errorf("probe: signature just made does not verify: %w", err)
	}
	m.set("dnssec.ds_digest_us", "us", us(perOp(budget, func() {
		_, err = dnssec.ComputeDS(d.Name, key.DNSKEY(), dnswire.DigestSHA256)
	})))
	if err != nil {
		return err
	}

	auth, ok := rig.mat.Net.Lookup(tldsim.NSHostOf(d.Operator)).(*dnsserver.Authoritative)
	if !ok || auth.Zone(d.Name) == nil {
		return fmt.Errorf("probe: child zone %s not served", d.Name)
	}
	child := auth.Zone(d.Name)
	signer, err := zone.NewSigner(dnswire.AlgED25519, now)
	if err != nil {
		return err
	}
	sets := 0
	perZone := perOp(budget, func() {
		c := child.Clone()
		if err = signer.Sign(c); err == nil && sets == 0 {
			c.RRSets(func(_ string, t dnswire.Type, _ []*dnswire.RR) {
				if t != dnswire.TypeRRSIG {
					sets++
				}
			})
		}
	})
	if err != nil || sets == 0 {
		return fmt.Errorf("probe: signing %s: %v (%d rrsets)", d.Name, err, sets)
	}
	m.set("zone.sign_us_per_rrset", "us", us(perZone)/float64(sets))
	return nil
}

// probeWire times the wire codec on the responses the serve oracle captured
// and on the query mix, and the two serving paths with the network removed:
// the cache-hit path over the warmed positive mix, and the full path on the
// cache-disabled handler (so the probe leaves the cache as the stage left it).
func probeWire(m *metricSet, rig *serveRig, responses [][]byte, budget time.Duration) error {
	sizes := make([]float64, len(responses))
	msgs := make([]dnswire.Message, len(responses))
	for i, r := range responses {
		sizes[i] = float64(len(r))
	}
	m.set("dnswire.resp_bytes_p50", "B", median(sizes))
	var err error
	i := 0
	m.set("dnswire.unpack_ns", "ns", float64(perOp(budget, func() {
		if e := msgs[i%len(msgs)].Unpack(responses[i%len(msgs)]); e != nil {
			err = e
		}
		i++
	})))
	if err != nil {
		return fmt.Errorf("probe: unpacking a served response: %w", err)
	}
	for i := range msgs { // every message unpacked at least once before packing
		if err := msgs[i].Unpack(responses[i]); err != nil {
			return err
		}
	}
	buf := make([]byte, 0, 4096)
	i = 0
	m.set("dnswire.pack_ns", "ns", float64(perOp(budget, func() {
		if _, e := msgs[i%len(msgs)].AppendPack(buf[:0]); e != nil {
			err = e
		}
		i++
	})))
	if err != nil {
		return fmt.Errorf("probe: packing a served response: %w", err)
	}
	name := make([]byte, 0, 256)
	i = 0
	m.set("dnswire.parse_query_ns", "ns", float64(perOp(budget, func() {
		_, name, _ = dnswire.ParseQueryView(rig.mix[i%len(rig.mix)], name)
		i++
	})))

	sc := dnsserver.NewWireScratch()
	out := make([]byte, 0, 4096)
	// The cache may be smaller than the positive mix (scale_40): time hits
	// over the queries that do hit, found by one pass.
	var hits [][]byte
	for _, pkt := range rig.hot {
		if _, hit := rig.cached.ServeWireFast(out[:0], pkt, sc); hit {
			hits = append(hits, pkt)
		}
		if len(hits) == 4096 {
			break
		}
	}
	if len(hits) == 0 {
		return fmt.Errorf("probe: no query of the warmed mix hits the cache")
	}
	i = 0
	m.set("dnsserver.fast_ns", "ns", float64(perOp(budget, func() {
		rig.cached.ServeWireFast(out[:0], hits[i%len(hits)], sc)
		i++
	})))
	i = 0
	m.set("dnsserver.full_ns", "ns", float64(perOp(budget, func() {
		rig.plain.ServeWireFull(out[:0], rig.mix[i%len(rig.mix)], sc, true)
		i++
	})))
	return nil
}

// probeArchive times the dataset and colstore layers on the sweep's archive:
// the salvage reader, the tailer's scanner, a replay of the day assembly
// (SpillWriter.Append in chunk-sized batches — the call RunStream makes out
// of the benchmark's reach — under the sweep's own spill budget), and the
// ingest path of the observatory (AppendDay, Freeze, SaveFile, Load) called
// directly.
func probeArchive(m *metricSet, p profile, sw *sweepResult, store *dataset.Store, dir string, tr *tracer) error {
	mb := float64(sw.ArchiveBytes) / 1e6
	t0 := time.Now()
	if _, _, err := dataset.ReadArchiveFile(sw.Archive); err != nil {
		return err
	}
	m.set("dataset.read_archive_mb_per_s", "MB/s", mb/time.Since(t0).Seconds())
	t0 = time.Now()
	if _, err := dataset.TailArchive(sw.Archive, 0); err != nil {
		return err
	}
	m.set("dataset.tail_mb_per_s", "MB/s", mb/time.Since(t0).Seconds())

	replayDir := filepath.Join(dir, "replay")
	if err := os.MkdirAll(replayDir, 0o755); err != nil {
		return err
	}
	root := tr.begin("dataset.replay", -1, 0)
	appendS := 0.0
	for _, day := range sw.Days {
		recs := store.Get(day).Records
		w := dataset.NewSpillWriter(day, dataset.SpillOptions{Dir: replayDir, MemBudget: p.SpillBudget})
		for lo := 0; lo < len(recs); lo += p.Chunk {
			id := tr.begin("dataset.spill_append", root, int64(day)<<16|int64(lo/p.Chunk))
			t0 := time.Now()
			err := w.Append(recs[lo:min(lo+p.Chunk, len(recs))]...)
			appendS += time.Since(t0).Seconds()
			tr.end(id)
			if err != nil {
				w.Close()
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	tr.end(root)
	m.set("dataset.spill_append_s", "s", appendS)

	ing := colstore.NewIngester()
	t0 = time.Now()
	for _, day := range sw.Days {
		if _, err := ing.AppendDay(store.Get(day)); err != nil {
			return err
		}
	}
	m.set("colstore.append_day_ms", "ms", float64(time.Since(t0))/1e6/float64(len(sw.Days)))
	t0 = time.Now()
	idx := ing.Freeze()
	m.set("colstore.freeze_ms", "ms", float64(time.Since(t0))/1e6)
	path := filepath.Join(dir, "probe.colstore")
	t0 = time.Now()
	if err := idx.SaveFile(path, nil); err != nil {
		return err
	}
	m.set("colstore.save_ms", "ms", float64(time.Since(t0))/1e6)
	t0 = time.Now()
	loaded, _, err := colstore.Load(path)
	if err != nil {
		return err
	}
	m.set("colstore.load_ms", "ms", float64(time.Since(t0))/1e6)
	n := loaded.Len()
	if err := loaded.Close(); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	m.set("colstore.world_bytes_per_domain", "B", float64(info.Size())/float64(max(n, 1)))
	return nil
}

// probeIndex times the analytics queries on the world index, one call kind
// at a time: a cold snapshot (Materialize bypasses the view cache), a warm
// one, one Figure 4 series, one Figure 3 CDF and Table 1.
func probeIndex(m *metricSet, idx *colstore.Index, budget time.Duration) {
	day := simtime.End
	m.set("colstore.snapshot_cold_ms", "ms", float64(perOp(budget, func() { idx.Materialize(day) }))/1e6)
	idx.Snapshot(day)
	m.set("colstore.snapshot_warm_ns", "ns", float64(perOp(budget, func() { idx.Snapshot(day) })))
	m.set("colstore.series_us", "us", us(perOp(budget, func() {
		idx.Series("ovh.net", "", simtime.GTLDStart, simtime.End, 1)
	})))
	m.set("colstore.operator_cdf_ms", "ms", float64(perOp(budget, func() {
		idx.OperatorCDF(day, colstore.ClassFull, tldsim.GTLDs...)
	}))/1e6)
	m.set("colstore.overview_us", "us", us(perOp(budget, func() { idx.Overview(day, tldsim.AllTLDs) })))
}
