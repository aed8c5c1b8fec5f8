package engine

import (
	"context"
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/circuits"
	"repro/internal/numeric"
)

// The engine-template noise evaluation (one z-solve per conductance
// slot over the golden LU) must match the clone-based reference in
// analysis.OutputNoise (silence sources, inject a unit AC current
// across each resistor, full re-solve) to 1e-9 relative on multiple
// built-in CUTs — the satellite contract wiring the seed-era noise
// model onto the batched engine path.
func TestOutputNoisePSDMatchesCloneReference(t *testing.T) {
	const tempK = 300.0
	for _, c := range []circuits.CUT{
		circuits.NFLowpass7(),
		circuits.SallenKeyLP(),
		circuits.RLCNotch(),
		circuits.KHNLowpass(),
	} {
		cut := c
		t.Run(cut.Circuit.Name(), func(t *testing.T) {
			eng, err := New(cut.Circuit, cut.Source, cut.Output)
			if err != nil {
				t.Fatal(err)
			}
			omegas := numeric.Logspace(cut.Omega0/10, cut.Omega0*10, 7)
			psd, err := eng.OutputNoisePSD(context.Background(), omegas, tempK)
			if err != nil {
				t.Fatal(err)
			}
			for j, w := range omegas {
				_, ref, err := analysis.OutputNoise(cut.Circuit, cut.Output, w, tempK)
				if err != nil {
					t.Fatalf("ω=%g: %v", w, err)
				}
				if ref <= 0 || psd[j] <= 0 {
					t.Fatalf("ω=%g: nonpositive PSD (engine %g, clone %g)", w, psd[j], ref)
				}
				if rel := math.Abs(psd[j]-ref) / ref; rel > 1e-9 {
					t.Errorf("ω=%g: engine PSD %.15g vs clone %.15g (rel %.3g)", w, psd[j], ref, rel)
				}
			}
		})
	}
}

func TestOutputNoisePSDValidation(t *testing.T) {
	cut := circuits.NFLowpass7()
	eng, err := New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.OutputNoisePSD(context.Background(), []float64{1}, 0); err == nil {
		t.Fatal("zero temperature accepted")
	}
	if _, err := eng.OutputNoisePSD(context.Background(), nil, 300); err == nil {
		t.Fatal("empty frequency list accepted")
	}
	if eng.SourceAmplitude() <= 0 {
		t.Fatalf("SourceAmplitude = %g", eng.SourceAmplitude())
	}
}
