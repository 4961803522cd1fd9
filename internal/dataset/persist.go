package dataset

import (
	"bytes"
	"cmp"
	"fmt"
	"strconv"
	"strings"

	"securepki.org/registrarsec/internal/simtime"
)

// Snapshot persistence in a TSV format close to what OpenINTEL publishes:
// one record per line, a header line naming the day. This file is the
// section body — header and record lines; a section is always closed by
// the length+CRC32C trailer of the journaled archive format (archive.go),
// so torn writes and bit rot are detectable, and on disk it is the text of
// one gzip member, so `zcat archive.tsv` prints exactly these lines. The
// section scanner (tail.go) is the one reader, of members only.
//
// A record line has two to six tab-separated fields (its domain front-coded
// in a section, below):
//
//	domain  ns-hosts  [flags  [status  [tld  [operator]]]]
//
// ns-hosts is comma-joined. flags names the set flags by letter, in the
// order k (DNSKEY), r (RRSIG), d (DS), v (chain valid); an empty field sets
// none. status is empty for a measured record, and otherwise the failure
// class of an unmeasured target ("failed" when it names none): a line that
// stops before its status field is a measurement. tld is written only where
// it is not the domain's last label, and operator only where it is not
// GroupOperatorAll(ns-hosts): the reader derives both back. The writer drops
// trailing empty fields with their tabs, so a measured unsigned record with
// derived TLD and operator is "domain<TAB>ns-hosts". The reader takes only
// the canonical line: a non-empty domain, no trailing empty field, flags in
// order without repeats, no explicit "ok", no tld or operator equal to its
// derivation — so every such line that reads is the bytes appendRecord
// renders of its record. A line cut short still parses; the section's
// length and CRC-32C (archive.go) are what catch it. A line of any other
// field count damages its section.
//
// Within one section the records are in strictly ascending (TLD, domain)
// order, TLD as read back: each domain appears once, and the writer
// (writeSection) refuses, and the reader (section.record) quarantines, a
// section that breaks the order.
//
// Within one section, an NS set is written in full the first time it
// appears and takes the next ordinal, up to maxNSSets of them; every later
// record with the same set writes "=<ordinal>" instead (nsDict). The reader
// hands each ordinal's decoded hosts, and their derived operator, to every
// record that refers to it (nsSets), so records of one section may share
// one NSHosts slice, which is read-only. A reference that is malformed,
// non-canonical or not yet defined damages the section. Spill runs are
// plain lines: no dictionary outside a section.
//
// Within one section, too, each domain is front-coded (frontcode.go)
// against the domain of the line before it: a marker byte for the prefix
// the two share, then the rest of the name. writeSection's emit codes it,
// always the longest shared prefix, and refuses a domain that starts with a
// marker; section.record rebuilds it from the record before, taking any
// shared prefix the name before holds, so a section of plain names — every
// section written before front coding — reads as it did, and refuses a
// marker that names more. So the domain column is the one a line that reads
// may spell otherwise than the writer would. Spill runs are plain here too.
//
// A keyed section (keyed.go) names a section before it in the same file as
// its key, in a fourth header field, "key=<day>:<distance>:<crc>", and
// writes each record that the key holds for the same domain as a carry: a
// line that starts with carryMark. The section's NS-set dictionary and front
// coding run over its lines as above; a bare carry neither defines nor uses a
// dictionary entry, and an explicit line's domain is front-coded against the
// record before it, carried or not. The writer refuses a domain that starts
// with carryMark, in every section, and the reader damages a section
// without a key that holds a carry. The writer carries every record whose
// domain the key holds, bare when the line is the key's; a reader also
// takes such a record written explicitly, or carried with the key's own
// fields, so a keyed section, like a front-coded domain, may read from
// lines the writer would spell otherwise.

// tsvHeader introduces one snapshot section.
const tsvHeader = "#snapshot"

// maxNSSets caps the ordinals one section's NS-set dictionary hands out: a
// set first seen after that many is written in full every time.
const maxNSSets = 1 << 16

// LineCarriesHost reports whether a record line can carry host as an NS
// host: not empty (a lone empty host would read back as none), no tab or
// newline (they end a column or the line), no comma (it joins hosts), and
// no leading '=' (it marks an NS-set reference).
func LineCarriesHost(host string) bool {
	return host != "" && host[0] != '=' && !strings.ContainsAny(host, "\t\n,")
}

// eachLine renders one line per record through a reused line buffer and
// hands each to emit.
func eachLine(recs []Record, emit func(line []byte) error) error {
	var line []byte
	for i := range recs {
		line = appendRecord(line[:0], &recs[i])
		if err := emit(line); err != nil {
			return err
		}
	}
	return nil
}

// nsDict is the writer's half of a section's NS-set dictionary: each NS
// column seen in full so far, by ordinal.
type nsDict struct {
	ordinal map[string]int
}

// append appends the rest of a rendered record line — from the tab after
// its domain, newline included — to dst, its NS column replaced by a
// reference when an earlier line defined the set.
func (d *nsDict) append(dst, rest []byte) []byte {
	if start, end := nsColumn(rest); start < end {
		if k, ok := d.ordinal[string(rest[start:end])]; ok {
			dst = append(append(dst, rest[:start]...), '=')
			return append(strconv.AppendInt(dst, int64(k), 10), rest[end:]...)
		} else if len(d.ordinal) < maxNSSets {
			d.ordinal[string(rest[start:end])] = len(d.ordinal)
		}
	}
	return append(dst, rest...)
}

// nsColumn returns the bounds of the NS column of a rendered line, or of its
// rest from the tab after the domain: the column after the first tab, which
// ends at a tab or at the line's newline.
func nsColumn(line []byte) (start, end int) {
	start = bytes.IndexByte(line, '\t') + 1
	if start == 0 {
		return 0, 0
	}
	end = start
	for end < len(line) && line[end] != '\t' && line[end] != '\n' {
		end++
	}
	return start, end
}

// nsSets is the reader's half of a section's NS-set dictionary: the hosts
// of each NS column read in full so far, by ordinal, with their operator.
type nsSets struct {
	hosts [][]string
	ops   []string
}

// define numbers one NS set read in full, while the cap allows.
func (s *nsSets) define(hosts []string, op string) {
	if len(s.hosts) < maxNSSets {
		s.hosts = append(s.hosts, hosts)
		s.ops = append(s.ops, op)
	}
}

// ref returns the ordinal a reference column names: "=" and a decimal with
// no sign and no leading zero, of a set defined already.
func (s *nsSets) ref(col string) (int, bool) {
	digits := col[1:]
	if digits == "" || len(digits) > 1 && digits[0] == '0' {
		return 0, false
	}
	k := 0
	for i := 0; i < len(digits); i++ {
		c := digits[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		if k = k*10 + int(c-'0'); k >= len(s.hosts) {
			return 0, false
		}
	}
	return k, true
}

// flagLetters names each flag of a record line in its fixed order: DNSKEY,
// RRSIG, DS, chain valid.
const flagLetters = "krdv"

// flagFields is the flags field of each set of flags, bit i standing for
// flagLetters[i].
var flagFields = func() (out [16]string) {
	for set := range out {
		for i := range flagLetters {
			if set&(1<<i) != 0 {
				out[set] += flagLetters[i : i+1]
			}
		}
	}
	return out
}()

// appendRecord appends r's record line, newline included, to dst: the
// domain and NS hosts, then the flags, status, TLD and operator fields up to
// the last that is not empty.
func appendRecord(dst []byte, r *Record) []byte {
	dst = append(dst, r.Domain...)
	dst = append(dst, '\t')
	for i, h := range r.NSHosts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, h...)
	}
	set := 0
	for i, f := range [4]bool{r.HasDNSKEY, r.HasRRSIG, r.HasDS, r.ChainValid} {
		if f {
			set |= 1 << i
		}
	}
	var optional [4]string // flags, status, tld, operator
	optional[0] = flagFields[set]
	// A class of "ok" has always read back as measured.
	if r.Failed && r.FailReason != "ok" {
		optional[1] = cmp.Or(r.FailReason, "failed")
	}
	if r.TLD != lastLabel(r.Domain) {
		optional[2] = r.TLD
	}
	if r.Operator != GroupOperatorAll(r.NSHosts) {
		optional[3] = r.Operator
	}
	n := len(optional)
	for n > 0 && optional[n-1] == "" {
		n--
	}
	for _, f := range optional[:n] {
		dst = append(dst, '\t')
		dst = append(dst, f...)
	}
	return append(dst, '\n')
}

// lastLabel is what an empty tld column stands for: the domain's last label.
func lastLabel(domain string) string {
	return domain[strings.LastIndexByte(domain, '.')+1:]
}

// lineTLD is the TLD r's line reads back with.
func lineTLD(r *Record) string {
	if r.TLD == "" {
		return lastLabel(r.Domain)
	}
	return r.TLD
}

// parseSnapshotHeader parses a "#snapshot <day> <count>" line, or a keyed
// section's "#snapshot <day> <count> key=<day>:<distance>:<crc>", the two
// forms writeSection writes. ref is nil for a section without a key.
func parseSnapshotHeader(fields []string) (day simtime.Day, n int, ref *keyRef, err error) {
	if len(fields) != 3 && len(fields) != 4 {
		return 0, 0, nil, fmt.Errorf("bad snapshot header")
	}
	if day, err = simtime.Parse(fields[1]); err != nil {
		return 0, 0, nil, err
	}
	if n, err = strconv.Atoi(fields[2]); err != nil || n < 0 {
		return 0, 0, nil, fmt.Errorf("bad record count %q", fields[2])
	}
	if len(fields) == 4 {
		if ref, err = parseKeyField(fields[3]); err != nil {
			return 0, 0, nil, err
		}
	}
	return day, n, ref, nil
}

// parseRecordFields parses one record line's tab-split fields, two to six.
// sets is the section's NS-set dictionary; a line outside any section (a
// spill run) has none, and its NS column is always hosts.
func parseRecordFields(fields []string, sets *nsSets) (Record, error) {
	switch {
	case len(fields) < 2 || len(fields) > 6:
		return Record{}, fmt.Errorf("%d fields, want 2–6", len(fields))
	case fields[0] == "":
		return Record{}, fmt.Errorf("empty domain")
	case len(fields) > 2 && fields[len(fields)-1] == "":
		return Record{}, fmt.Errorf("trailing empty field")
	}
	var optional [4]string // flags, status, tld, operator
	copy(optional[:], fields[2:])
	rec := Record{Domain: fields[0], TLD: lastLabel(fields[0])}
	op, err := parseNS(&rec, fields[1], sets)
	if err != nil {
		return Record{}, err
	}
	if !parseFlags(&rec, optional[0]) {
		return Record{}, fmt.Errorf("bad flags %q", optional[0])
	}
	switch status := optional[1]; status {
	case "":
	case "ok":
		return Record{}, fmt.Errorf("explicit status ok")
	default:
		rec.Failed, rec.FailReason = true, status
	}
	if rec.TLD, err = override(optional[2], rec.TLD, "TLD"); err != nil {
		return Record{}, err
	}
	if rec.Operator, err = override(optional[3], op, "operator"); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// override returns what a TLD or operator field stands for: derived when
// the field is empty. A field that spells out derived is not canonical.
func override(field, derived, what string) (string, error) {
	switch field {
	case "":
		return derived, nil
	case derived:
		return "", fmt.Errorf("%s %q is the derived one", what, field)
	}
	return field, nil
}

// parseFlags sets rec's flags from a flags field: letters of flagLetters,
// each at most once and in its order.
func parseFlags(rec *Record, field string) bool {
	bools := [4]*bool{&rec.HasDNSKEY, &rec.HasRRSIG, &rec.HasDS, &rec.ChainValid}
	next := 0
	for i := 0; i < len(field); i++ {
		k := strings.IndexByte(flagLetters[next:], field[i])
		if k < 0 {
			return false
		}
		next += k
		*bools[next] = true
		next++
	}
	return true
}

// parseNS reads a line's NS column into rec.NSHosts and returns the operator
// the reader derives for it. The column is hosts, or in a section a
// reference to a set an earlier line of the section defined.
func parseNS(rec *Record, col string, sets *nsSets) (op string, err error) {
	// An empty NS field means "no NS hosts": it must stay nil rather than
	// re-parse as [""], which strings.Split would produce.
	switch {
	case col == "":
	case col[0] == '=' && sets != nil:
		k, ok := sets.ref(col)
		if !ok {
			return "", fmt.Errorf("bad NS reference")
		}
		rec.NSHosts, op = sets.hosts[k], sets.ops[k]
	default:
		rec.NSHosts = strings.Split(col, ",")
		op = GroupOperatorAll(rec.NSHosts)
		if sets != nil {
			sets.define(rec.NSHosts, op)
		}
	}
	return op, nil
}
