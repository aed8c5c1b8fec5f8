package artifact

import (
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
)

func writeArtifact(t *testing.T, dir, name, kind, checksum string) {
	t.Helper()
	data, err := Encode(kind, checksum, map[string]int{"x": 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestScanDirIndexesEnvelopes(t *testing.T) {
	dir := t.TempDir()
	writeArtifact(t, dir, "dict.json", "repro.dictionary-grid", "aaa")
	writeArtifact(t, dir, "tv.json", "repro.test-vector", "aaa")
	writeArtifact(t, dir, "other.json", "repro.dictionary-grid", "bbb")
	// Non-artifact files are skipped, not errors.
	if err := os.WriteFile(filepath.Join(dir, "junk.json"), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}

	m, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Entries) != 3 {
		t.Fatalf("entries = %+v, want 3", m.Entries)
	}
	path, ok := m.Find("repro.test-vector", "aaa")
	if !ok || path != filepath.Join(dir, "tv.json") {
		t.Fatalf("Find = %q, %v", path, ok)
	}
	if _, ok := m.Find("repro.test-vector", "bbb"); ok {
		t.Fatal("found a test vector that was never saved for bbb")
	}
}

func TestScanDirMissingDir(t *testing.T) {
	if _, err := ScanDir(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing directory accepted")
	}
}

// FuzzScanDir writes each input as a.json into a directory beside a
// valid envelope, b.json, and a file that is not JSON, c.json, then
// scans it. ScanDir must not panic. It must list b.json with its kind
// and checksum, never c.json, and a.json exactly when the input decodes
// as an envelope of Version with a non-empty kind, with that envelope's
// kind and checksum. The entries must come back sorted, and a rescan
// must be deep-equal.
func FuzzScanDir(f *testing.F) {
	for _, kind := range []string{KindDictionary, KindTestVector, KindTrajectories, KindClouds} {
		data, err := Encode(kind, Checksum(kind), map[string][]float64{"omegas": {0.56, 4.55}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-1])
	}
	f.Add([]byte(`{"kind":"repro.test-vector","version":2,"payload":[1]}`))
	f.Add([]byte(`{"kind":"","version":1,"payload":[1]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[{"kind":"repro.test-vector","version":1}]`))

	valid, err := Encode(KindTestVector, "bbb", []float64{0.56, 4.55})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for name, body := range map[string][]byte{"a.json": data, "b.json": valid, "c.json": []byte("not json")} {
			if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		m, err := ScanDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		want := []ManifestEntry{{Path: "b.json", Kind: KindTestVector, Checksum: "bbb"}}
		var env Envelope
		if json.Unmarshal(data, &env) == nil && env.Version == Version && env.Kind != "" {
			want = append(want, ManifestEntry{Path: "a.json", Kind: env.Kind, Checksum: env.Checksum})
		}
		byKey := func(a, b ManifestEntry) int {
			return cmp.Or(cmp.Compare(a.Checksum, b.Checksum), cmp.Compare(a.Kind, b.Kind), cmp.Compare(a.Path, b.Path))
		}
		if !slices.IsSortedFunc(m.Entries, byKey) {
			t.Fatalf("entries not sorted: %+v", m.Entries)
		}
		slices.SortFunc(want, byKey)
		if !reflect.DeepEqual(m.Entries, want) {
			t.Fatalf("entries %+v, want %+v", m.Entries, want)
		}
		again, err := ScanDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("rescan %+v, first scan %+v", again, m)
		}
	})
}
