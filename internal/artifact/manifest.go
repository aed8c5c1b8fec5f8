package artifact

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// ManifestEntry records one saved artifact: where it lives and the
// envelope header that identifies it without decoding the payload.
type ManifestEntry struct {
	// Path is the artifact file, relative to the manifest's directory.
	Path string
	// Kind is the envelope's payload kind.
	Kind string
	// Checksum is the envelope's netlist checksum — the key that groups
	// artifacts belonging to one circuit under test.
	Checksum string
}

// Manifest lists the saved artifacts under one directory, the registry's
// index for warm-starting a CUT from persisted products instead of
// re-simulating them. Entries are sorted by (checksum, kind, path) so a
// rescan of an unchanged directory is deep-equal.
type Manifest struct {
	// Dir is the directory the entry paths are relative to.
	Dir string
	// Entries holds one record per readable artifact.
	Entries []ManifestEntry
}

// ScanDir indexes every artifact envelope in dir (non-recursive): each
// regular *.json file that decodes as an envelope contributes one entry;
// other files are skipped silently, so a mixed directory is fine. A
// missing directory is an error; an empty one yields an empty manifest.
func ScanDir(dir string) (*Manifest, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("artifact: scan %s: %w", dir, err)
	}
	m := &Manifest{Dir: dir}
	for _, f := range files {
		if f.IsDir() || !strings.HasSuffix(f.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			continue
		}
		var env Envelope
		if err := json.Unmarshal(data, &env); err != nil || env.Kind == "" || env.Version != Version {
			continue
		}
		m.Entries = append(m.Entries, ManifestEntry{Path: f.Name(), Kind: env.Kind, Checksum: env.Checksum})
	}
	sort.Slice(m.Entries, func(i, j int) bool {
		a, b := m.Entries[i], m.Entries[j]
		if a.Checksum != b.Checksum {
			return a.Checksum < b.Checksum
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Path < b.Path
	})
	return m, nil
}

// Find returns the absolute path of the first artifact of the given kind
// saved for the CUT identified by checksum, and whether one exists.
func (m *Manifest) Find(kind, checksum string) (string, bool) {
	for _, e := range m.Entries {
		if e.Kind == kind && e.Checksum == checksum {
			return filepath.Join(m.Dir, e.Path), true
		}
	}
	return "", false
}
