package apiserv

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzWatermark feeds ReadWatermark arbitrary file bytes: it never panics,
// and every watermark it accepts is one WriteFile writes back to a file
// that reads as the same value.
func FuzzWatermark(f *testing.F) {
	dir := f.TempDir()
	sealed := filepath.Join(dir, "seed.json")
	if err := (&Watermark{Offset: 1019, Sections: 3, Quarantined: 1, LastDay: "2016-08-13"}).WriteFile(sealed); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(sealed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn
	edited := append([]byte(nil), valid...)
	edited[len(`{  "offset": `)+1] ^= 0x01 // a digit of the offset, edited by hand
	f.Add(edited)
	f.Add([]byte(`{"offset":0,"sections":0,"quarantined":0,"last_day":"","crc32c":""}`))
	f.Add([]byte(`{"OFFSET":1019,"offset":7,"unknown":[1,2],"crc32c":"00000000"}`))
	f.Add([]byte("null"))
	f.Add([]byte(""))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "watermark.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		wm, err := ReadWatermark(path)
		if err != nil {
			return
		}
		again := filepath.Join(dir, "again.json")
		if err := wm.WriteFile(again); err != nil {
			t.Fatalf("accepted %+v, which WriteFile refuses: %v", wm, err)
		}
		back, err := ReadWatermark(again)
		if err != nil || !reflect.DeepEqual(back, wm) {
			t.Fatalf("accepted %+v, which WriteFile writes back as %+v (%v)", wm, back, err)
		}
	})
}
