package dataset

import (
	"bufio"
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

// tsvHeader introduces one snapshot section.
const tsvHeader = "#snapshot"

// WriteTSV serializes the snapshot as a section body, without the trailer
// WriteArchiveSection closes it with.
func (s *Snapshot) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%s\t%s\t%d\n", tsvHeader, s.Day, len(s.Records))
	for i := range s.Records {
		writeRecord(bw, &s.Records[i])
	}
	return bw.Flush()
}

// writeRecord renders one record line. The ninth column is the measurement
// status: "ok", or the failure class of an unmeasured target.
func writeRecord(bw io.Writer, r *Record) {
	status := "ok"
	if r.Failed {
		status = r.FailReason
		if status == "" {
			status = "failed"
		}
	}
	fmt.Fprintf(bw, "%s\t%s\t%s\t%s\t%t\t%t\t%t\t%t\t%s\n",
		r.Domain, r.TLD, r.Operator, strings.Join(r.NSHosts, ","),
		r.HasDNSKEY, r.HasRRSIG, r.HasDS, r.ChainValid, status)
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
	// An empty NS field means "no NS hosts": it must stay nil rather than
	// re-parse as [""], which strings.Split would produce.
	if fields[3] != "" {
		rec.NSHosts = strings.Split(fields[3], ",")
	}
	bools := [4]*bool{&rec.HasDNSKEY, &rec.HasRRSIG, &rec.HasDS, &rec.ChainValid}
	for i, f := range fields[4:8] {
		v, err := strconv.ParseBool(f)
		if err != nil {
			return Record{}, fmt.Errorf("bad bool %q", f)
		}
		*bools[i] = v
	}
	if fields[8] != "ok" {
		rec.Failed = true
		rec.FailReason = fields[8]
	}
	return rec, nil
}
