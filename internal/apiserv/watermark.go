package apiserv

// The ingest watermark records how far into the archive the daemon has
// committed, as a small checksummed JSON file written atomically beside
// the world file. The world file's own META section is the authoritative
// resume cursor — world and cursor commit in one atomic rename — so the
// watermark exists for cheap introspection (operators and the readiness
// probe can read it without mapping the world) and as a cross-check: a
// watermark that is unreadable, or disagrees with the world META, means
// someone swapped or edited files underneath the daemon. Resume logs the
// disagreement and carries on from the world META — the watermark is the
// non-authoritative copy and the next commit rewrites it.

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"

	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// Watermark is the committed ingest position.
type Watermark struct {
	// Offset is the archive byte offset every committed section ends
	// before (dataset.TailResult.Offset).
	Offset int64 `json:"offset"`
	// Sections is the count of sections ingested into the world.
	Sections int `json:"sections"`
	// Quarantined is the count of damaged archive pieces skipped.
	Quarantined int `json:"quarantined"`
	// LastDay is the most recent ingested day, "" before the first.
	LastDay string `json:"last_day"`
	// CRC is the CRC-32C of the JSON encoding with this field zero,
	// rendered %08x. A torn or hand-edited watermark fails verification.
	CRC string `json:"crc32c"`
}

var watermarkCRC = crc32.MakeTable(crc32.Castagnoli)

// sum computes the checksum over the canonical encoding with CRC empty.
func (wm *Watermark) sum() (string, error) {
	clean := *wm
	clean.CRC = ""
	body, err := json.Marshal(&clean)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%08x", crc32.Checksum(body, watermarkCRC)), nil
}

// WriteFile seals and atomically persists the watermark.
func (wm *Watermark) WriteFile(path string) error {
	sum, err := wm.sum()
	if err != nil {
		return err
	}
	sealed := *wm
	sealed.CRC = sum
	body, err := json.MarshalIndent(&sealed, "", "  ")
	if err != nil {
		return err
	}
	return dataset.WriteFileAtomic(path, append(body, '\n'))
}

// ReadWatermark loads and verifies a watermark file. A missing file is
// (nil, nil): no commit has happened yet. A corrupt file is an error; the
// caller decides whether to fall back to the world META or re-ingest.
func ReadWatermark(path string) (*Watermark, error) {
	body, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var wm Watermark
	if err := json.Unmarshal(body, &wm); err != nil {
		return nil, fmt.Errorf("apiserv: corrupt watermark %s: %w", path, err)
	}
	want, err := wm.sum()
	if err != nil {
		return nil, err
	}
	if wm.CRC != want {
		return nil, fmt.Errorf("apiserv: watermark %s checksum %s does not match contents (%s)", path, wm.CRC, want)
	}
	return &wm, nil
}

// lastDayString renders a day for the watermark ("" for Never).
func lastDayString(d simtime.Day) string {
	if d == simtime.Never {
		return ""
	}
	return d.String()
}
