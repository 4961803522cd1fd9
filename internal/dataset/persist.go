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
// one record per line, a header line naming the day. Archives written by
// regsec-scan can be re-read by regsec-report and by downstream tooling.
//
// Two dialects share the record layout:
//
//   - the plain TSV format written by WriteTSV / read by ReadTSV, and
//   - the journaled archive format (archive.go), which wraps every
//     snapshot section with a length+CRC32C trailer so torn writes and
//     bit rot are detectable.

// tsvHeader introduces one snapshot section.
const tsvHeader = "#snapshot"

// WriteTSV serializes the snapshot.
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

// WriteTSV serializes every snapshot in the store, oldest first.
func (s *Store) WriteTSV(w io.Writer) error {
	for _, day := range s.Days() {
		if err := s.Get(day).WriteTSV(w); err != nil {
			return err
		}
	}
	return nil
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

// ReadTSV parses one or more snapshot sections into a store. It validates
// the record count each section header declares against the records
// actually present, and rejects archives carrying the same day twice —
// both are signs of a torn or hand-mangled file that would otherwise skew
// every downstream series. Trailered archives (sections ending in "#end")
// must be read with ReadArchive instead.
func ReadTSV(r io.Reader) (*Store, error) {
	store := NewStore()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var cur *Snapshot
	declared := -1
	headerLine := 0
	lineNo := 0
	closeSection := func() error {
		if cur == nil {
			return nil
		}
		if declared >= 0 && declared != len(cur.Records) {
			return fmt.Errorf("dataset: line %d: snapshot %s declares %d records, found %d (truncated or torn archive?)",
				headerLine, cur.Day, declared, len(cur.Records))
		}
		if store.Get(cur.Day) != nil {
			return fmt.Errorf("dataset: line %d: duplicate snapshot day %s", headerLine, cur.Day)
		}
		store.Add(cur)
		return nil
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		fields := strings.Split(line, "\t")
		if fields[0] == tsvHeader {
			if err := closeSection(); err != nil {
				return nil, err
			}
			day, n, err := parseSnapshotHeader(fields)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: %w", lineNo, err)
			}
			cur = &Snapshot{Day: day}
			declared, headerLine = n, lineNo
			if n > 0 {
				cur.Records = make([]Record, 0, n)
			}
			continue
		}
		if strings.HasPrefix(fields[0], "#") {
			if fields[0] == trailerHeader {
				return nil, fmt.Errorf("dataset: line %d: trailered archive section (use ReadArchive)", lineNo)
			}
			return nil, fmt.Errorf("dataset: line %d: unknown directive %q", lineNo, fields[0])
		}
		if cur == nil {
			return nil, fmt.Errorf("dataset: line %d: record before snapshot header", lineNo)
		}
		rec, err := parseRecordFields(fields)
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", lineNo, err)
		}
		cur.Records = append(cur.Records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := closeSection(); err != nil {
		return nil, err
	}
	return store, nil
}
