package repro

import (
	"context"
	"testing"
)

// TestPaperGADeterministicOptimum runs the paper's full GA configuration
// (128 individuals, 15 generations) on the paper CUT twice with the
// fixed default seed: the run must be reproducible bit-for-bit and reach
// the zero-intersection optimum (fitness 1), matching the seed
// implementation's result on this workload.
func TestPaperGADeterministicOptimum(t *testing.T) {
	s, err := NewSession(PaperCUT())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := PaperOptimizeConfig(s.CUT().Omega0)
	tv1, err := s.Optimize(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tv1.Fitness < 1 || tv1.Intersections != 0 {
		t.Fatalf("fitness = %g (I = %d), want the zero-intersection optimum", tv1.Fitness, tv1.Intersections)
	}
	tv2, err := s.Optimize(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tv1.Omegas) != len(tv2.Omegas) {
		t.Fatalf("vector sizes differ: %v vs %v", tv1.Omegas, tv2.Omegas)
	}
	for i := range tv1.Omegas {
		if tv1.Omegas[i] != tv2.Omegas[i] {
			t.Fatalf("same seed, different vectors: %v vs %v", tv1.Omegas, tv2.Omegas)
		}
	}
}
