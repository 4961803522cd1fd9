package dataset

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"strconv"
	"strings"

	"securepki.org/registrarsec/internal/simtime"
)

// Snapshot persistence in a TSV format close to what OpenINTEL publishes:
// one record per line, a header line naming the day. This file is the
// section body — header and record lines; on disk a section is always
// closed by the length+CRC32C trailer of the journaled archive format
// (archive.go), so torn writes and bit rot are detectable, and the section
// scanner (tail.go) is the one reader.
//
// A record line has nine tab-separated columns:
//
//	domain  tld  operator  ns-hosts  dnskey  rrsig  ds  chain  status
//
// ns-hosts is comma-joined; the four flags are 1 or 0; status is "ok" or
// the failure class of an unmeasured target ("failed" when it names none).
// The tld column is empty when it is the domain's last label, and the
// operator column when it is GroupOperatorAll(ns-hosts): the reader derives
// both back, so those bytes are never written. The reader also takes the
// long form — every column spelled out, flags as true/false — which reads
// back to the same records.
//
// Within one section, an NS set is written in full the first time it
// appears and takes the next ordinal, up to maxNSSets of them; every later
// record with the same set writes "=<ordinal>" instead (nsDict). The reader
// hands each ordinal's decoded hosts, and their derived operator, to every
// record that refers to it (nsSets), so records of one section may share
// one NSHosts slice, which is read-only. A reference that is malformed,
// non-canonical or not yet defined damages the section. Spill runs are
// plain lines: no dictionary outside a section.

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
	line    []byte // the rewritten line, reused
}

// write writes one rendered record line, newline included, to w, its NS
// column replaced by a reference when an earlier line defined the set.
func (d *nsDict) write(w io.Writer, line []byte) error {
	if start, end := nsColumn(line); start < end {
		if k, ok := d.ordinal[string(line[start:end])]; ok {
			d.line = append(append(d.line[:0], line[:start]...), '=')
			d.line = append(strconv.AppendInt(d.line, int64(k), 10), line[end:]...)
			line = d.line
		} else if len(d.ordinal) < maxNSSets {
			d.ordinal[string(line[start:end])] = len(d.ordinal)
		}
	}
	_, err := w.Write(line)
	return err
}

// nsColumn returns the bounds of a rendered line's fourth, NS, column.
func nsColumn(line []byte) (start, end int) {
	for range 3 {
		i := bytes.IndexByte(line[start:], '\t')
		if i < 0 {
			return 0, 0
		}
		start += i + 1
	}
	end = bytes.IndexByte(line[start:], '\t')
	if end < 0 {
		return 0, 0
	}
	return start, start + end
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

// appendRecord appends r's record line, newline included, to dst.
func appendRecord(dst []byte, r *Record) []byte {
	dst = append(dst, r.Domain...)
	dst = append(dst, '\t')
	if r.TLD != lastLabel(r.Domain) {
		dst = append(dst, r.TLD...)
	}
	dst = append(dst, '\t')
	if r.Operator != GroupOperatorAll(r.NSHosts) {
		dst = append(dst, r.Operator...)
	}
	dst = append(dst, '\t')
	for i, h := range r.NSHosts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, h...)
	}
	for _, f := range [4]bool{r.HasDNSKEY, r.HasRRSIG, r.HasDS, r.ChainValid} {
		flag := byte('0')
		if f {
			flag = '1'
		}
		dst = append(dst, '\t', flag)
	}
	dst = append(dst, '\t')
	switch {
	case !r.Failed:
		dst = append(dst, "ok"...)
	case r.FailReason == "":
		dst = append(dst, "failed"...)
	default:
		dst = append(dst, r.FailReason...)
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

// parseSnapshotHeader parses a "#snapshot <day> [count]" line. The declared
// record count is -1 when the header omits it (hand-written archives).
func parseSnapshotHeader(fields []string) (simtime.Day, int, error) {
	if len(fields) < 2 {
		return 0, 0, fmt.Errorf("bad snapshot header")
	}
	day, err := simtime.Parse(fields[1])
	if err != nil {
		return 0, 0, err
	}
	declared := -1
	if len(fields) >= 3 {
		n, err := strconv.Atoi(fields[2])
		if err != nil || n < 0 {
			return 0, 0, fmt.Errorf("bad record count %q", fields[2])
		}
		declared = n
	}
	return day, declared, nil
}

// parseRecordFields parses one record line's tab-split fields. The ninth,
// status, column is required: a line without it has lost the one field
// that tells a measurement from a gap, and must not read back as measured.
// sets is the section's NS-set dictionary; a line outside any section (a
// spill run) has none, and its NS column is always hosts.
func parseRecordFields(fields []string, sets *nsSets) (Record, error) {
	if len(fields) != 9 {
		return Record{}, fmt.Errorf("%d fields, want 9", len(fields))
	}
	rec := Record{Domain: fields[0], TLD: fields[1], Operator: fields[2]}
	if rec.TLD == "" {
		rec.TLD = lastLabel(rec.Domain)
	}
	// An empty NS field means "no NS hosts": it must stay nil rather than
	// re-parse as [""], which strings.Split would produce.
	switch col := fields[3]; {
	case col == "":
	case col[0] == '=' && sets != nil:
		k, ok := sets.ref(col)
		if !ok {
			return Record{}, fmt.Errorf("bad NS reference")
		}
		rec.NSHosts = sets.hosts[k]
		rec.Operator = cmp.Or(rec.Operator, sets.ops[k])
	default:
		rec.NSHosts = strings.Split(col, ",")
		op := GroupOperatorAll(rec.NSHosts)
		rec.Operator = cmp.Or(rec.Operator, op)
		if sets != nil {
			sets.define(rec.NSHosts, op)
		}
	}
	// ParseBool takes the 1/0 of today's lines and the true/false of the
	// long form alike.
	bools := [4]*bool{&rec.HasDNSKEY, &rec.HasRRSIG, &rec.HasDS, &rec.ChainValid}
	for i, f := range fields[4:8] {
		v, err := strconv.ParseBool(f)
		if err != nil {
			return Record{}, fmt.Errorf("bad bool %q", f)
		}
		*bools[i] = v
	}
	// An empty status reads as the writer renders a Failed record without
	// a class.
	if status := fields[8]; status != "ok" {
		rec.Failed = true
		rec.FailReason = cmp.Or(status, "failed")
	}
	return rec, nil
}
