package repro

import (
	"context"
	"fmt"
	"os"

	"repro/internal/artifact"
	"repro/internal/dictionary"
)

// DictionaryExport is the serializable snapshot of a dictionary grid:
// golden and per-fault magnitudes over a frequency axis.
type DictionaryExport = dictionary.Export

// Artifact kinds: the envelope tags distinguishing the three persisted
// products so a test-vector file is never misread as a dictionary. The
// canonical strings live in internal/artifact, shared with the serving
// registry's manifest scanner.
const (
	kindDictionary   = artifact.KindDictionary
	kindTestVector   = artifact.KindTestVector
	kindTrajectories = artifact.KindTrajectories
	kindClouds       = artifact.KindClouds

	// KindDiagnosisReport tags the machine-readable report ftdiag -json
	// emits. Exported so downstream consumers can dispatch on it.
	KindDiagnosisReport = "repro.diagnosis-report"
)

// EncodeArtifact wraps a payload in the versioned envelope used by every
// Save method, stamped with the session's netlist checksum. It exists
// for tools (e.g. ftdiag -json) that persist their own payload kinds.
func (s *Session) EncodeArtifact(kind string, payload any) ([]byte, error) {
	return artifact.Encode(kind, s.checksum, payload)
}

// SaveDictionary persists the fault dictionary evaluated on the given
// frequency grid: it precomputes the grid (streaming StageDictionary
// progress, honoring the context per frequency), snapshots it, and
// writes a versioned, checksummed artifact to path. A double-fault
// session (WithDoubleFaults) additionally precomputes and stores one row
// per modeled pair, keyed by the pair's stable ID, so the artifact
// round-trips into the same pair map the session serves live.
//
// The stored responses are produced by the same batched solver that
// builds in-process trajectory maps, so a map rebuilt from the artifact
// at grid frequencies (TrajectoriesFromExport) matches the in-process
// map bit-for-bit.
func (s *Session) SaveDictionary(ctx context.Context, path string, omegas []float64) error {
	if len(omegas) < 2 {
		return fmt.Errorf("repro: %w: dictionary artifact needs at least 2 grid frequencies, got %d", ErrBadConfig, len(omegas))
	}
	if err := s.Precompute(ctx, omegas); err != nil {
		return err
	}
	var sets []FaultSet
	if len(s.pairs) > 0 {
		sets = make([]FaultSet, len(s.pairs))
		for i, p := range s.pairs {
			sets[i] = p
		}
		if err := s.Dictionary().BuildGridSets(ctx, sets, omegas, s.workers); err != nil {
			return err
		}
	}
	snap, err := s.Dictionary().SnapshotSets(omegas, sets)
	if err != nil {
		return err
	}
	data, err := artifact.Encode(kindDictionary, s.checksum, snap)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadDictionary reads a dictionary artifact saved by SaveDictionary,
// rejecting wrong kinds and schema versions (ErrArtifact) and grids
// built from a different netlist than this session's CUT
// (ErrStaleArtifact).
func (s *Session) LoadDictionary(path string) (*DictionaryExport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := artifact.Decode(data, kindDictionary, s.checksum)
	if err != nil {
		return nil, err
	}
	ex, err := dictionary.ParseExport(payload)
	if err != nil {
		return nil, fmt.Errorf("repro: %w: %v", ErrArtifact, err)
	}
	return ex, nil
}

// SaveTestVector persists an optimized test vector (frequencies,
// fitness, GA history) as a versioned, checksummed artifact.
func (s *Session) SaveTestVector(path string, tv *TestVector) error {
	if tv == nil {
		return fmt.Errorf("repro: %w: nil test vector", ErrBadConfig)
	}
	data, err := artifact.Encode(kindTestVector, s.checksum, tv)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadTestVector reads a test-vector artifact saved by SaveTestVector,
// with the same kind/version/checksum verification as LoadDictionary. Its
// frequencies must pass the checks ParseFrequencies applies to -freqs:
// a repeated frequency would collapse the trajectory map (ErrArtifact).
func (s *Session) LoadTestVector(path string) (*TestVector, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tv TestVector
	if err := artifact.DecodeInto(data, kindTestVector, s.checksum, &tv); err != nil {
		return nil, err
	}
	if len(tv.Omegas) == 0 {
		// Catches payload "null"/"{}" (json.Unmarshal no-ops on null), so
		// corruption surfaces here rather than as a confusing downstream
		// "empty test vector" failure.
		return nil, fmt.Errorf("repro: %w: test vector has no frequencies", ErrArtifact)
	}
	for i, w := range tv.Omegas {
		if p := frequencyProblem(w, tv.Omegas[:i]); p != "" {
			return nil, fmt.Errorf("repro: %w: test vector frequency %g %s", ErrArtifact, w, p)
		}
	}
	return &tv, nil
}

// SaveTrajectories persists a trajectory map as a versioned, checksummed
// artifact — the deployment product a tester loads to diagnose without a
// simulator.
func (s *Session) SaveTrajectories(path string, m *TrajectoryMap) error {
	if m == nil {
		return fmt.Errorf("repro: %w: nil trajectory map", ErrBadConfig)
	}
	data, err := artifact.Encode(kindTrajectories, s.checksum, m)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadTrajectories reads a trajectory-map artifact saved by
// SaveTrajectories, with the same verification as LoadDictionary. The
// loaded map reproduces the saved one exactly: JSON float64 encoding is
// round-trip lossless, so a Diagnoser built on it yields identical
// results.
func (s *Session) LoadTrajectories(path string) (*TrajectoryMap, error) {
	return loadTrajectoryMap(path, s.checksum)
}

// SaveClouds persists a Monte-Carlo signature-cloud set as a versioned,
// checksummed artifact, so the expensive tolerance sweep behind a
// probabilistic diagnosis model is paid once per board revision.
func (s *Session) SaveClouds(path string, cs *SignatureClouds) error {
	if cs == nil {
		return fmt.Errorf("repro: %w: nil signature clouds", ErrBadConfig)
	}
	if err := cs.Validate(); err != nil {
		return fmt.Errorf("repro: %w", err)
	}
	data, err := artifact.Encode(kindClouds, s.checksum, cs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// LoadClouds reads a signature-cloud artifact saved by SaveClouds, with
// the same kind/version/checksum verification as LoadDictionary plus a
// structural validation of the cloud set itself. The loaded set scores
// identically to the saved one: JSON float64 encoding is round-trip
// lossless.
func (s *Session) LoadClouds(path string) (*SignatureClouds, error) {
	return loadClouds(path, s.checksum)
}

// LoadSignatureClouds reads a signature-cloud artifact without a session
// — the tester-side path, where no circuit model exists to verify the
// checksum against. The envelope's kind and schema version are still
// enforced.
func LoadSignatureClouds(path string) (*SignatureClouds, error) {
	return loadClouds(path, "")
}

func loadClouds(path, wantChecksum string) (*SignatureClouds, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cs SignatureClouds
	if err := artifact.DecodeInto(data, kindClouds, wantChecksum, &cs); err != nil {
		return nil, err
	}
	if err := cs.Validate(); err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return &cs, nil
}

// LoadTrajectoryMap reads a trajectory-map artifact without a session —
// the tester-side path, where no circuit model exists to verify the
// checksum against. The envelope's kind and schema version are still
// enforced.
func LoadTrajectoryMap(path string) (*TrajectoryMap, error) {
	return loadTrajectoryMap(path, "")
}

func loadTrajectoryMap(path, wantChecksum string) (*TrajectoryMap, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m TrajectoryMap
	if err := artifact.DecodeInto(data, kindTrajectories, wantChecksum, &m); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return &m, nil
}
