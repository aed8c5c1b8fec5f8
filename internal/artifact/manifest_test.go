package artifact

import (
	"os"
	"path/filepath"
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
