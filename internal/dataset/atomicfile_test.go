package dataset

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"securepki.org/registrarsec/internal/archivetest"
)

// dirNames lists a directory, so tests can assert no temp file is left.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestAtomicFile walks the create/commit/abort contract every durable
// writer (archives, checkpoints, ledgers, world files) now
// shares.
func TestAtomicFile(t *testing.T) {
	const previous = "previous contents\n"
	cases := []struct {
		name string
		// target prepares dir and returns the path to replace.
		target func(t *testing.T, dir string) string
		// finish ends the file after "new contents\n" was written.
		finish  func(f *AtomicFile) error
		wantErr bool
		want    string // contents of the target afterwards; "" = not a regular file
		entries int
	}{
		{
			name:   "commit replaces the previous file",
			target: existingFile(previous),
			finish: (*AtomicFile).Commit,
			want:   "new contents\n", entries: 1,
		},
		{
			name:   "commit creates a missing file",
			target: func(t *testing.T, dir string) string { return filepath.Join(dir, "fresh.tsv") },
			finish: (*AtomicFile).Commit,
			want:   "new contents\n", entries: 1,
		},
		{
			name:   "abort leaves the previous file byte-identical",
			target: existingFile(previous),
			finish: func(f *AtomicFile) error { f.Abort(); return nil },
			want:   previous, entries: 1,
		},
		{
			name: "a failing rename surfaces and cleans up",
			target: func(t *testing.T, dir string) string {
				path := filepath.Join(dir, "occupied")
				// A non-empty directory cannot be renamed over.
				if err := os.MkdirAll(filepath.Join(path, "child"), 0o755); err != nil {
					t.Fatal(err)
				}
				return path
			},
			finish:  (*AtomicFile).Commit,
			wantErr: true, entries: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := tc.target(t, dir)
			before := len(dirNames(t, dir))
			f, err := CreateAtomic(path, 16)
			if err != nil {
				t.Fatal(err)
			}
			if names := dirNames(t, dir); len(names) != before+1 {
				t.Fatalf("expected a temp file beside the target, directory holds %v", names)
			}
			// Longer than the 16-byte buffer and shorter: both must arrive.
			for _, part := range []string{"new ", "contents\n"} {
				if _, err := f.Write([]byte(part)); err != nil {
					t.Fatal(err)
				}
			}
			if err := tc.finish(f); (err != nil) != tc.wantErr {
				t.Fatalf("finish: err = %v, want error %v", err, tc.wantErr)
			}
			if names := dirNames(t, dir); len(names) != tc.entries {
				t.Fatalf("directory holds %v afterwards, want %d entries and no temp file", names, tc.entries)
			}
			if tc.want != "" {
				got, err := os.ReadFile(path)
				if err != nil || string(got) != tc.want {
					t.Fatalf("target holds %q, %v; want %q", got, err, tc.want)
				}
			}
			// Finished is finished: nothing more can be written or committed,
			// and a late (deferred) Abort neither fails nor removes the target.
			if _, err := f.Write([]byte("late")); err == nil {
				t.Error("Write after the file was finished succeeded")
			}
			if err := f.Commit(); err == nil {
				t.Error("Commit after the file was finished succeeded")
			}
			f.Abort()
			if names := dirNames(t, dir); len(names) != tc.entries {
				t.Fatalf("late Abort changed the directory to %v", names)
			}
		})
	}
}

func existingFile(contents string) func(t *testing.T, dir string) string {
	return func(t *testing.T, dir string) string {
		path := filepath.Join(dir, "archive.tsv")
		archivetest.Write(t, path, []byte(contents))
		return path
	}
}

// TestCommitReportsUndurableRename: the directory fsync comes after the
// rename, and its failure must reach the caller — of Commit and of
// ArchiveWriter.Close, which used to drop it and report a durable archive
// it did not have. An unreadable directory still admits the rename (write +
// search permission) but cannot be opened for the fsync.
func TestCommitReportsUndurableRename(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root opens unreadable directories; the failure cannot be staged")
	}
	for name, finish := range map[string]func(path string) error{
		"AtomicFile.Commit": func(path string) error {
			f, err := CreateAtomic(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			os.Chmod(filepath.Dir(path), 0o300)
			return f.Commit()
		},
		"ArchiveWriter.Close": func(path string) error {
			aw, err := NewArchiveWriter(path)
			if err != nil {
				t.Fatal(err)
			}
			os.Chmod(filepath.Dir(path), 0o300)
			return aw.Close()
		},
	} {
		dir := filepath.Join(t.TempDir(), "d")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		err := finish(filepath.Join(dir, "archive.tsv"))
		os.Chmod(dir, 0o755)
		if err == nil {
			t.Errorf("%s: a rename whose directory could not be fsynced reported success", name)
		}
	}
}

// TestAtomicFileWritebackIsAdvisory: the writeback hints an AtomicFile
// gives as it writes change nothing it commits. Over 8 MiB in writes of
// uneven sizes, Commit leaves the same bytes with the platform's hint and
// with one that fails every time, asked once for each writebackChunk or
// more that reached the file.
func TestAtomicFileWritebackIsAdvisory(t *testing.T) {
	data := make([]byte, 8<<20+12345)
	for i := range data {
		data[i] = byte(i * 7 / 5)
	}
	platform := startWriteback
	defer func() { startWriteback = platform }()
	hints := 0
	for name, hint := range map[string]func(*os.File, int64, int64) error{
		"platform": platform,
		"failing": func(*os.File, int64, int64) error {
			hints++
			return errors.New("writeback refused")
		},
	} {
		startWriteback = hint
		path := filepath.Join(t.TempDir(), "big.bin")
		f, err := CreateAtomic(path, 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		for rest, n := data, 1; len(rest) > 0; n = n*3 + 1 {
			n = min(n%(3<<20)+1, len(rest))
			if _, err := f.Write(rest[:n]); err != nil {
				t.Fatal(err)
			}
			rest = rest[n:]
		}
		if err := f.Commit(); err != nil {
			t.Fatalf("%s hint: Commit: %v", name, err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s hint: the committed file differs from what was written (%v)", name, err)
		}
	}
	if most := len(data) / writebackChunk; hints == 0 || hints > most {
		t.Errorf("the failing hint was asked %d times, want 1 to %d", hints, most)
	}
}
