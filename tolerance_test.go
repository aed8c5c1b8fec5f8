package repro_test

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro"
)

// TestSessionCloudsDeterministicAcrossWorkers pins the acceptance
// criterion at the public-API layer: a fixed WithToleranceSeed yields a
// bit-identical cloud model at worker counts 1, 4, and the default
// (NumCPU).
func TestSessionCloudsDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	omegas := []float64{0.56, 4.55}
	tol := repro.Tolerance{Sigma: 0.05}
	var ref *repro.SignatureClouds
	for _, workers := range []int{1, 4, 0} {
		opts := []repro.Option{
			repro.WithTolerance(tol, 32),
			repro.WithToleranceSeed(42),
		}
		if workers > 0 {
			opts = append(opts, repro.WithWorkers(workers))
		}
		s, err := repro.NewSession(repro.PaperCUT(), opts...)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := s.Clouds(ctx, omegas)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = cs
			continue
		}
		if !reflect.DeepEqual(ref, cs) {
			t.Fatalf("workers=%d: cloud model differs from workers=1 build", workers)
		}
	}
}

// TestWithToleranceKeepsPointPathAndChecksum guards the compatibility
// contract: opting a session into tolerance modeling must not change the
// artifact checksum (existing artifacts keep loading) and must leave the
// point-signature diagnosis path bit-identical.
func TestWithToleranceKeepsPointPathAndChecksum(t *testing.T) {
	ctx := context.Background()
	omegas := []float64{0.56, 4.55}
	plain, err := repro.NewSession(repro.PaperCUT())
	if err != nil {
		t.Fatal(err)
	}
	tolerant, err := repro.NewSession(repro.PaperCUT(),
		repro.WithTolerance(repro.Tolerance{Sigma: 0.05}, 16))
	if err != nil {
		t.Fatal(err)
	}

	// Checksum unchanged: an artifact saved by the plain session loads
	// in the tolerance-aware one without ErrStaleArtifact.
	m, err := plain.Trajectories(ctx, omegas)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "map.json")
	if err := plain.SaveTrajectories(path, m); err != nil {
		t.Fatal(err)
	}
	if _, err := tolerant.LoadTrajectories(path); err != nil {
		t.Fatalf("plain-session artifact rejected by tolerance session: %v", err)
	}

	// Point path bit-identical.
	dgPlain, err := plain.Diagnoser(ctx, omegas)
	if err != nil {
		t.Fatal(err)
	}
	dgTol, err := tolerant.Diagnoser(ctx, omegas)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []repro.Fault{
		{Component: "R3", Deviation: 0.25},
		{Component: "C2", Deviation: -0.3},
	} {
		a, err := dgPlain.DiagnoseSet(plain.Dictionary(), f)
		if err != nil {
			t.Fatal(err)
		}
		b, err := dgTol.DiagnoseSet(tolerant.Dictionary(), f)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s@%+.0f%%: point diagnosis differs under WithTolerance", f.Component, f.Deviation*100)
		}
	}

	// A session without WithTolerance must refuse to build clouds.
	if _, err := plain.Clouds(ctx, omegas); !errors.Is(err, repro.ErrBadConfig) {
		t.Fatalf("Clouds without WithTolerance: err = %v, want ErrBadConfig", err)
	}
}

// TestCloudsArtifactRoundTrip covers the new artifact kind: deep-equal
// Save→Load round-trip (with measurement noise folded in), the
// tester-side load without a session, and rejection of both stale
// checksums and wrong kinds.
func TestCloudsArtifactRoundTrip(t *testing.T) {
	ctx := context.Background()
	omegas := []float64{0.56, 4.55}
	s, err := repro.NewSession(repro.PaperCUT(),
		repro.WithTolerance(repro.Tolerance{Sigma: 0.05}, 24),
		repro.WithToleranceSeed(7),
		repro.WithMeasurementNoise(300, 1e4))
	if err != nil {
		t.Fatal(err)
	}
	cs, err := s.Clouds(ctx, omegas)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.NoiseVar) != len(omegas) {
		t.Fatalf("WithMeasurementNoise produced %d noise variances, want %d", len(cs.NoiseVar), len(omegas))
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "clouds.json")
	if err := s.SaveClouds(path, cs); err != nil {
		t.Fatal(err)
	}
	back, err := s.LoadClouds(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cs, back) {
		t.Fatal("cloud model did not round-trip deep-equal")
	}
	if _, err := repro.LoadSignatureClouds(path); err != nil {
		t.Fatalf("sessionless load: %v", err)
	}

	// Built for another board revision → stale.
	other, err := repro.NewSession(repro.Benchmarks()[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.LoadClouds(path); !errors.Is(err, repro.ErrStaleArtifact) {
		t.Fatalf("stale clouds: err = %v, want ErrStaleArtifact", err)
	}

	// A trajectory-map file is not a cloud model.
	m, err := s.Trajectories(ctx, omegas)
	if err != nil {
		t.Fatal(err)
	}
	mapPath := filepath.Join(dir, "map.json")
	if err := s.SaveTrajectories(mapPath, m); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadClouds(mapPath); !errors.Is(err, repro.ErrArtifact) {
		t.Fatalf("wrong kind: err = %v, want ErrArtifact", err)
	}
}

// TestConcurrentProbabilisticDiagnoses hammers one shared cloud model
// and diagnoser from many goroutines, mixing probabilistic scoring with
// classic point diagnoses — the serving layer's exact access pattern.
// The CI race job pins this test; without -race it still verifies
// concurrent results are bit-identical to sequential ones.
func TestConcurrentProbabilisticDiagnoses(t *testing.T) {
	ctx := context.Background()
	omegas := []float64{0.56, 4.55}
	s, err := repro.NewSession(repro.PaperCUT(),
		repro.WithTolerance(repro.Tolerance{Sigma: 0.05}, 24),
		repro.WithToleranceSeed(3),
		repro.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	dg, err := s.Diagnoser(ctx, omegas)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := s.Clouds(ctx, omegas)
	if err != nil {
		t.Fatal(err)
	}

	// One probe point per cloud, plus sequential references.
	points := make([][]float64, len(cs.Clouds))
	wantProb := make([]string, len(cs.Clouds))
	for i := range cs.Clouds {
		points[i] = cs.Clouds[i].Mean
		res, err := s.DiagnoseProbabilistic(dg, cs, points[i])
		if err != nil {
			t.Fatal(err)
		}
		data, _ := json.Marshal(res)
		wantProb[i] = string(data)
	}
	fault := repro.Fault{Component: "R3", Deviation: 0.25}
	wantPoint, err := dg.DiagnoseSet(s.Dictionary(), fault)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	const rounds = 4
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i, p := range points {
					res, err := s.DiagnoseProbabilistic(dg, cs, p)
					if err != nil {
						errs[g] = err
						return
					}
					data, _ := json.Marshal(res)
					if string(data) != wantProb[i] {
						errs[g] = errors.New("concurrent probabilistic diagnosis diverged from sequential reference")
						return
					}
				}
				got, err := dg.DiagnoseSet(s.Dictionary(), fault)
				if err != nil {
					errs[g] = err
					return
				}
				if !reflect.DeepEqual(got, wantPoint) {
					errs[g] = errors.New("concurrent point diagnosis diverged from sequential reference")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}
