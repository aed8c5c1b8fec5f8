package engine

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/circuits"
	"repro/internal/numeric"
	"repro/internal/rerr"
)

// The engine-template noise evaluation (the column solver's z[out] read
// per conductance slot over the golden factorization) must match the
// clone-based reference in analysis.OutputNoise (silence sources, inject
// a unit AC current across each resistor, full re-solve) to 1e-9
// relative: on four dense built-in CUTs, and on rc-grid-8 and
// rc-ladder-16 forced onto the sparse path, where the grid reads z[out]
// by the reach walks and the ladder by the block solve.
func TestOutputNoisePSDMatchesCloneReference(t *testing.T) {
	const tempK = 300.0
	grid, err := circuits.RCGrid(8)
	if err != nil {
		t.Fatal(err)
	}
	lad, err := circuits.RCLadder(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cut  circuits.CUT
		path FactorPath
	}{
		{circuits.NFLowpass7(), FactorAuto},
		{circuits.SallenKeyLP(), FactorAuto},
		{circuits.RLCNotch(), FactorAuto},
		{circuits.KHNLowpass(), FactorAuto},
		{grid, FactorSparse},
		{lad, FactorSparse},
	} {
		cut := c.cut
		t.Run(cut.Circuit.Name(), func(t *testing.T) {
			eng, err := New(cut.Circuit, cut.Source, cut.Output)
			if err != nil {
				t.Fatal(err)
			}
			eng.SetFactorPath(c.path)
			if got := eng.FactorPathName(); (c.path == FactorSparse) != (got == "sparse") {
				t.Fatalf("factor path %s", got)
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

// TestOutputNoisePSDMemoryBounded: noise runs on the column solver, so
// one frequency on rc-grid-32 (1025 unknowns, 1984 resistors) allocates
// less than the two dense 1025² complex matrices (33.6 MB) a dense
// factor-and-solve per frequency would.
func TestOutputNoisePSDMemoryBounded(t *testing.T) {
	cut, err := circuits.RCGrid(32)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		t.Fatal(err)
	}
	var psd []float64
	if mb := allocMB(func() { psd, err = eng.OutputNoisePSD(context.Background(), []float64{cut.Omega0}, 300) }); err != nil {
		t.Fatal(err)
	} else if mb >= 25 {
		t.Errorf("OutputNoisePSD on rc-grid-32 allocated %.1f MB at one ω, want < 25", mb)
	}
	if !(psd[0] > 0) {
		t.Fatalf("PSD %v", psd)
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
	// Every frequency must be finite and nonnegative; DC is a frequency.
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		_, err := eng.OutputNoisePSD(context.Background(), []float64{1, w}, 300)
		if !errors.Is(err, rerr.ErrBadConfig) || !strings.Contains(err.Error(), "frequency 1 ") {
			t.Fatalf("ω=%g: err = %v, want ErrBadConfig naming frequency 1", w, err)
		}
	}
	if psd, err := eng.OutputNoisePSD(context.Background(), []float64{0}, 300); err != nil || !(psd[0] > 0) {
		t.Fatalf("DC: PSD %v, err %v", psd, err)
	}
	if eng.SourceAmplitude() <= 0 {
		t.Fatalf("SourceAmplitude = %g", eng.SourceAmplitude())
	}
}
