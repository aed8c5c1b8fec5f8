package repro

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestArtifactRoundTripsAllCUTs is the satellite coverage: for every
// built-in CUT, Dictionary / TestVector / TrajectoryMap survive a
// Save→Load round-trip deep-equal.
func TestArtifactRoundTripsAllCUTs(t *testing.T) {
	ctx := context.Background()
	for _, cut := range Benchmarks() {
		cut := cut
		t.Run(cut.Circuit.Name(), func(t *testing.T) {
			s, err := NewSession(cut)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			omegas := []float64{cut.Omega0 / 2, cut.Omega0 * 2}

			// Trajectory map round-trip.
			m, err := s.Trajectories(ctx, omegas)
			if err != nil {
				t.Fatal(err)
			}
			mapPath := filepath.Join(dir, "map.json")
			if err := s.SaveTrajectories(mapPath, m); err != nil {
				t.Fatal(err)
			}
			m2, err := s.LoadTrajectories(mapPath)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(m, m2) {
				t.Fatal("trajectory map did not round-trip deep-equal")
			}

			// Dictionary grid round-trip.
			dictPath := filepath.Join(dir, "dict.json")
			if err := s.SaveDictionary(ctx, dictPath, omegas); err != nil {
				t.Fatal(err)
			}
			ex, err := s.LoadDictionary(dictPath)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := s.Dictionary().Snapshot(omegas)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(snap, ex) {
				t.Fatal("dictionary export did not round-trip deep-equal")
			}

			// Test-vector round-trip (hand-built: no GA run needed).
			tv := &TestVector{Omegas: omegas, Fitness: 0.5, Intersections: 1, Evaluations: 7}
			tvPath := filepath.Join(dir, "tv.json")
			if err := s.SaveTestVector(tvPath, tv); err != nil {
				t.Fatal(err)
			}
			tv2, err := s.LoadTestVector(tvPath)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(tv, tv2) {
				t.Fatalf("test vector did not round-trip: %+v vs %+v", tv, tv2)
			}
		})
	}
}

// TestLoadedDictionaryDiagnosesIdentically is the acceptance criterion:
// a Diagnoser built from a loaded dictionary artifact produces identical
// DiagnosisResults to one built in-process.
func TestLoadedDictionaryDiagnosesIdentically(t *testing.T) {
	ctx := context.Background()
	s := testSession(t)
	omegas := []float64{0.56, 4.55}

	// In-process: live trajectory map.
	live, err := s.Trajectories(ctx, omegas)
	if err != nil {
		t.Fatal(err)
	}
	dgLive, err := NewDiagnoser(live)
	if err != nil {
		t.Fatal(err)
	}

	// Artifact path: save the dictionary evaluated at the test vector,
	// load it back, rebuild the map from the export alone.
	path := filepath.Join(t.TempDir(), "dict.json")
	if err := s.SaveDictionary(ctx, path, omegas); err != nil {
		t.Fatal(err)
	}
	ex, err := s.LoadDictionary(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := TrajectoriesFromExport(ex, omegas)
	if err != nil {
		t.Fatal(err)
	}
	dgLoaded, err := NewDiagnoser(loaded)
	if err != nil {
		t.Fatal(err)
	}

	// The maps themselves must agree bit-for-bit at grid frequencies.
	if !reflect.DeepEqual(live.Omegas, loaded.Omegas) {
		t.Fatal("omegas differ")
	}
	for i, tr := range live.Trajectories {
		lt := loaded.Trajectories[i]
		if !reflect.DeepEqual(tr.Points, lt.Points) || !reflect.DeepEqual(tr.Deviations, lt.Deviations) {
			t.Fatalf("trajectory %s differs between live and loaded map", tr.Component)
		}
	}

	// Every hold-out fault must produce an identical ranked result.
	for _, comp := range s.Dictionary().Universe().Components {
		for _, dev := range []float64{-0.35, -0.15, 0.15, 0.35} {
			f := Fault{Component: comp, Deviation: dev}
			a, err := dgLive.DiagnoseSet(s.Dictionary(), f)
			if err != nil {
				t.Fatal(err)
			}
			b, err := dgLoaded.DiagnoseSet(s.Dictionary(), f)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: live and loaded diagnoses differ:\n%v\nvs\n%v", f.ID(), a, b)
			}
		}
	}

	// And the trajectory-map artifact behaves the same way.
	mapPath := filepath.Join(t.TempDir(), "map.json")
	if err := s.SaveTrajectories(mapPath, live); err != nil {
		t.Fatal(err)
	}
	fromMap, err := LoadTrajectoryMap(mapPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, fromMap) {
		t.Fatal("standalone map load differs from the live map")
	}
}

// TestArtifactRejectsMismatchedChecksum: an artifact saved for one CUT
// must not load into a session for another.
func TestArtifactRejectsMismatchedChecksum(t *testing.T) {
	ctx := context.Background()
	s1 := testSession(t)
	cut2, err := BenchmarkByName("sallen-key-lp")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSession(cut2)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	omegas := []float64{0.5, 2}

	dictPath := filepath.Join(dir, "dict.json")
	if err := s1.SaveDictionary(ctx, dictPath, omegas); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.LoadDictionary(dictPath); !errors.Is(err, ErrStaleArtifact) {
		t.Fatalf("stale dictionary: err = %v, want ErrStaleArtifact", err)
	}

	m, err := s1.Trajectories(ctx, omegas)
	if err != nil {
		t.Fatal(err)
	}
	mapPath := filepath.Join(dir, "map.json")
	if err := s1.SaveTrajectories(mapPath, m); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.LoadTrajectories(mapPath); !errors.Is(err, ErrStaleArtifact) {
		t.Fatalf("stale map: err = %v, want ErrStaleArtifact", err)
	}
	tvPath := filepath.Join(dir, "tv.json")
	if err := s1.SaveTestVector(tvPath, &TestVector{Omegas: omegas}); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.LoadTestVector(tvPath); !errors.Is(err, ErrStaleArtifact) {
		t.Fatalf("stale test vector: err = %v, want ErrStaleArtifact", err)
	}
}

// TestArtifactRejectsUnknownVersionAndKind tampers with the envelope.
func TestArtifactRejectsUnknownVersionAndKind(t *testing.T) {
	s := testSession(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "tv.json")
	if err := s.SaveTestVector(path, &TestVector{Omegas: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env map[string]any
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}

	// Future schema version.
	env["version"] = 99
	tampered, _ := json.Marshal(env)
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadTestVector(path); !errors.Is(err, ErrArtifact) {
		t.Fatalf("future version: err = %v, want ErrArtifact", err)
	}

	// Wrong kind: a test-vector artifact is not a trajectory map.
	env["version"] = 1
	tampered, _ = json.Marshal(env)
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadTrajectories(path); !errors.Is(err, ErrArtifact) {
		t.Fatalf("wrong kind: err = %v, want ErrArtifact", err)
	}

	// Garbage bytes.
	if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadTestVector(path); !errors.Is(err, ErrArtifact) {
		t.Fatalf("garbage: err = %v, want ErrArtifact", err)
	}
}

// TestLoadTestVectorRejectsNullPayload: a corrupted artifact whose
// payload decodes to the zero value must error, not return an unusable
// empty vector.
func TestLoadTestVectorRejectsNullPayload(t *testing.T) {
	s := testSession(t)
	path := filepath.Join(t.TempDir(), "tv.json")
	corrupt := `{"kind":"repro.test-vector","version":1,"checksum":"` + s.Checksum() + `","payload":null}`
	if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadTestVector(path); !errors.Is(err, ErrArtifact) {
		t.Fatalf("null payload: err = %v, want ErrArtifact", err)
	}
}

// writeMalformedArtifacts saves the two malformed artifacts the loaders
// must refuse into dir: nf-lowpass-7's map at ω = 0.56, 4.55 with one
// coordinate of one point deleted, and a test vector that repeats a
// frequency. It returns their paths.
func writeMalformedArtifacts(t *testing.T, s *Session, dir string) (mapPath, tvPath string) {
	t.Helper()
	tm, err := s.Trajectories(context.Background(), []float64{0.56, 4.55})
	if err != nil {
		t.Fatal(err)
	}
	mapPath = filepath.Join(dir, "map.json")
	if err := s.SaveTrajectories(mapPath, tm); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(mapPath)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Kind     string        `json:"kind"`
		Version  int           `json:"version"`
		Checksum string        `json:"checksum"`
		Payload  TrajectoryMap `json:"payload"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	pts := env.Payload.Trajectories[2].Points
	pts[3] = pts[3][:1]
	if data, err = json.Marshal(&env); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	tvPath = filepath.Join(dir, "tv.json")
	if err := s.SaveTestVector(tvPath, &TestVector{Omegas: []float64{0.5, 0.5}, Fitness: 1}); err != nil {
		t.Fatal(err)
	}
	return mapPath, tvPath
}

// TestLoadersRejectMalformedArtifacts: a trajectory map with a point of
// the wrong dimension and a test vector with a repeated frequency are
// refused on load (ErrArtifact). Before, the map loaded and Diagnose
// panicked in geometry on the short point, and the test vector served a
// map whose every candidate sat at distance 0.
func TestLoadersRejectMalformedArtifacts(t *testing.T) {
	s := testSession(t)
	mapPath, tvPath := writeMalformedArtifacts(t, s, t.TempDir())
	if _, err := s.LoadTrajectories(mapPath); !errors.Is(err, ErrArtifact) {
		t.Fatalf("short point: LoadTrajectories err = %v, want ErrArtifact", err)
	}
	if _, err := LoadTrajectoryMap(mapPath); !errors.Is(err, ErrArtifact) {
		t.Fatalf("short point: LoadTrajectoryMap err = %v, want ErrArtifact", err)
	}
	if _, err := s.LoadTestVector(tvPath); !errors.Is(err, ErrArtifact) {
		t.Fatalf("repeated frequency: LoadTestVector err = %v, want ErrArtifact", err)
	}
	// ParseFrequencies accepts DC for dictionary grids, but a saved test
	// vector only feeds trajectories, which need ω > 0.
	dcPath := filepath.Join(t.TempDir(), "tv-dc.json")
	if err := s.SaveTestVector(dcPath, &TestVector{Omegas: []float64{0, 4.55}, Fitness: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadTestVector(dcPath); !errors.Is(err, ErrArtifact) {
		t.Fatalf("DC frequency: LoadTestVector err = %v, want ErrArtifact", err)
	}
	// A hand-built map gets the same check from NewDiagnoser.
	tm, err := s.Trajectories(context.Background(), []float64{0.56, 4.55})
	if err != nil {
		t.Fatal(err)
	}
	tm.Trajectories[0].Points[1] = tm.Trajectories[0].Points[1][:1]
	if _, err := NewDiagnoser(tm); !errors.Is(err, ErrArtifact) {
		t.Fatalf("short point: NewDiagnoser err = %v, want ErrArtifact", err)
	}
}

// FuzzTrajectoryMapArtifact: whatever LoadTrajectoryMap accepts builds a
// Diagnoser, and diagnosing a point of the map's dimension returns a
// ranking without panicking; whatever it refuses is ErrArtifact.
func FuzzTrajectoryMapArtifact(f *testing.F) {
	s, err := NewSession(PaperCUT())
	if err != nil {
		f.Fatal(err)
	}
	tm, err := s.Trajectories(context.Background(), []float64{0.56, 4.55})
	if err != nil {
		f.Fatal(err)
	}
	seed, err := s.EncodeArtifact(kindTrajectories, tm)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "map.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadTrajectoryMap(path)
		if err != nil {
			if !errors.Is(err, ErrArtifact) {
				t.Fatalf("refusal %v does not wrap ErrArtifact", err)
			}
			return
		}
		dg, err := NewDiagnoser(m)
		if err != nil {
			t.Fatalf("loaded map refused by NewDiagnoser: %v", err)
		}
		for _, p := range [][]float64{make([]float64, m.Dim()), m.Trajectories[0].Points[1]} {
			res, err := dg.Diagnose(p)
			if err != nil {
				t.Fatalf("Diagnose(%v): %v", p, err)
			}
			if len(res.Candidates) == 0 {
				t.Fatalf("Diagnose(%v) ranked no candidate", p)
			}
		}
	})
}

// FuzzDictionaryGridArtifact: any input may be refused, but one that
// Session.LoadDictionary, TrajectoriesFromExport and NewDiagnoser all
// accept must diagnose a point of the map's dimension without
// panicking. The seeds are nf-lowpass-7 grid exports of a plain and of
// a double-fault session; an input is offered to both sessions, since
// the artifact checksum binds it to one.
func FuzzDictionaryGridArtifact(f *testing.F) {
	omegas := []float64{0.56, 4.55}
	var sessions []*Session
	for _, opts := range [][]Option{nil, {WithDoubleFaults(16)}} {
		s, err := NewSession(PaperCUT(), opts...)
		if err != nil {
			f.Fatal(err)
		}
		path := filepath.Join(f.TempDir(), "grid.json")
		if err := s.SaveDictionary(context.Background(), path, omegas); err != nil {
			f.Fatal(err)
		}
		seed, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		sessions = append(sessions, s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "grid.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, s := range sessions {
			ex, err := s.LoadDictionary(path)
			if err != nil {
				continue
			}
			m, err := TrajectoriesFromExport(ex, omegas)
			if err != nil {
				continue
			}
			dg, err := NewDiagnoser(m)
			if err != nil {
				continue
			}
			for _, p := range [][]float64{make([]float64, m.Dim()), m.Trajectories[0].Points[1]} {
				res, err := dg.Diagnose(p)
				if err != nil {
					t.Fatalf("Diagnose(%v): %v", p, err)
				}
				if len(res.Candidates) == 0 {
					t.Fatalf("Diagnose(%v) ranked no candidate", p)
				}
			}
		}
	})
}

// FuzzTestVectorArtifact: whatever LoadTestVector accepts must build a
// trajectory map at its frequencies. The seed is nf-lowpass-7's paper
// test vector.
func FuzzTestVectorArtifact(f *testing.F) {
	s, err := NewSession(PaperCUT())
	if err != nil {
		f.Fatal(err)
	}
	seed, err := s.EncodeArtifact(kindTestVector, &TestVector{Omegas: []float64{0.56345, 4.5524}, Fitness: 1, Evaluations: 1920})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "tv.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		tv, err := s.LoadTestVector(path)
		if err != nil {
			return
		}
		if _, err := s.Trajectories(context.Background(), tv.Omegas); err != nil {
			t.Fatalf("loaded test vector %v builds no trajectory map: %v", tv.Omegas, err)
		}
	})
}

// FuzzSignatureCloudsArtifact: every refusal of LoadSignatureClouds
// wraps ErrArtifact, and a cloud set it accepts scores a point of its
// dimension: Score must rank it, and so must DiagnoseProbabilistic on a
// Diagnoser of that dimension (any other dimension is refused with
// ErrBadConfig). The seeds are nf-lowpass-7 cloud sets, without and
// with measurement noise.
func FuzzSignatureCloudsArtifact(f *testing.F) {
	ctx := context.Background()
	omegas := []float64{0.56, 4.55}
	var s *Session
	for _, opts := range [][]Option{nil, {WithMeasurementNoise(300, 1e4)}} {
		var err error
		s, err = NewSession(PaperCUT(), append(opts, WithTolerance(Tolerance{Sigma: 0.05}, 16), WithToleranceSeed(1))...)
		if err != nil {
			f.Fatal(err)
		}
		cs, err := s.Clouds(ctx, omegas)
		if err != nil {
			f.Fatal(err)
		}
		seed, err := s.EncodeArtifact(kindClouds, cs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	dg, err := s.Diagnoser(ctx, omegas)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "clouds.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cs, err := LoadSignatureClouds(path)
		if err != nil {
			if !errors.Is(err, ErrArtifact) {
				t.Fatalf("refusal %v does not wrap ErrArtifact", err)
			}
			return
		}
		for _, p := range [][]float64{make([]float64, cs.Dim()), cs.Clouds[0].Mean} {
			res, err := cs.Score(p)
			if err != nil || len(res.Candidates) == 0 {
				t.Fatalf("Score(%v): %v", p, err)
			}
			res, err = s.DiagnoseProbabilistic(dg, cs, p)
			switch {
			case cs.Dim() != len(omegas):
				if !errors.Is(err, ErrBadConfig) {
					t.Fatalf("DiagnoseProbabilistic of a %d-dimensional cloud set: %v, want ErrBadConfig", cs.Dim(), err)
				}
			case err != nil || len(res.Candidates) == 0:
				t.Fatalf("DiagnoseProbabilistic(%v): %v", p, err)
			}
		}
	})
}
