package dataset

import (
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

// tsvHeader introduces one snapshot section.
const tsvHeader = "#snapshot"

// writeRecords writes one line per record through a reused line buffer.
func writeRecords(w io.Writer, recs []Record) error {
	var line []byte
	for i := range recs {
		line = appendRecord(line[:0], &recs[i])
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
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
func parseRecordFields(fields []string) (Record, error) {
	if len(fields) != 9 {
		return Record{}, fmt.Errorf("%d fields, want 9", len(fields))
	}
	rec := Record{Domain: fields[0], TLD: fields[1], Operator: fields[2]}
	if rec.TLD == "" {
		rec.TLD = lastLabel(rec.Domain)
	}
	// An empty NS field means "no NS hosts": it must stay nil rather than
	// re-parse as [""], which strings.Split would produce.
	if fields[3] != "" {
		rec.NSHosts = strings.Split(fields[3], ",")
	}
	if rec.Operator == "" {
		rec.Operator = GroupOperatorAll(rec.NSHosts)
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
