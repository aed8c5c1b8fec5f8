package repro

// Cross-module integration tests: each exercises a path through several
// packages that no single package test covers end to end.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/fault"
	"repro/internal/geometry"
	"repro/internal/numeric"
	"repro/internal/signal"
	"repro/internal/transient"
)

// TestIntegrationNetlistToDiagnosis drives the entire flow from netlist
// text to a correct diagnosis: parser → circuit → dictionary → GA →
// trajectories → classifier.
func TestIntegrationNetlistToDiagnosis(t *testing.T) {
	const nl = `sallen-key via netlist
V1 in 0 1
R1 in x 1
R2 x p 1
C1 x out 1.4142
C2 p 0 0.70711
U1 p out out
.end
`
	s, err := NewSessionFromNetlist(nl, "V1", "out", WithComponents("C1", "C2"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := PaperOptimizeConfig(1)
	cfg.GA.PopSize = 24
	cfg.GA.Generations = 6
	tv, err := s.Optimize(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := s.Diagnoser(context.Background(), tv.Omegas)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dg.DiagnoseSet(s.Dictionary(), Fault{Component: "C1", Deviation: -0.25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best().Component != "C1" {
		t.Fatalf("diagnosed %s, want C1\n%s", res.Best().Component, res)
	}
}

// TestIntegrationTransientAgreesWithAC cross-validates the two
// independent solvers: the trapezoidal time-domain engine must converge
// to the phasor steady state of the AC engine on the paper CUT.
func TestIntegrationTransientAgreesWithAC(t *testing.T) {
	cut := PaperCUT()
	omega := 1.3

	ac, err := analysis.NewAC(cut.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ac.Transfer(cut.Source, cut.Output, omega)
	if err != nil {
		t.Fatal(err)
	}
	wantAmp := math.Hypot(real(h), imag(h))

	res, err := transient.Run(cut.Circuit.Clone(), transient.Config{
		Step:     2e-3,
		Duration: 80,
		Sources: map[string]transient.Waveform{
			cut.Source: transient.Sine(1, omega, math.Pi/2), // cos(ωt)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Voltage(cut.Output)
	if err != nil {
		t.Fatal(err)
	}
	// Goertzel over the settled tail measures the steady-state
	// amplitude.
	fs := 1 / 2e-3
	tail := v[len(v)/2:]
	amp, _, err := signal.Goertzel(tail, fs, omega)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(amp-wantAmp) > 0.02*wantAmp {
		t.Fatalf("transient amplitude %g vs AC %g", amp, wantAmp)
	}
}

// TestIntegrationDiagnoseCircuitAPI exercises the public variant
// diagnosis: tolerance-perturbed board with a hard fault, plus a double
// fault that must be rejected.
func TestIntegrationDiagnoseCircuitAPI(t *testing.T) {
	s, err := NewSession(PaperCUT())
	if err != nil {
		t.Fatal(err)
	}
	omegas := []float64{0.5, 2}
	rng := rand.New(rand.NewSource(21))

	// Tolerance background + single fault: diagnosed, not rejected.
	board, err := (Tolerance{Sigma: 0.005}).Perturb(s.Dictionary().Golden(), rng, "C2")
	if err != nil {
		t.Fatal(err)
	}
	if err := board.ScaleValue("C2", 1.3); err != nil {
		t.Fatal(err)
	}
	res, rejected, err := s.DiagnoseCircuit(context.Background(), board, omegas, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if rejected {
		t.Fatalf("single fault rejected:\n%s", res)
	}
	if res.Best().Component != "C2" {
		t.Fatalf("diagnosed %s, want C2", res.Best().Component)
	}

	// Large double fault: rejection should fire.
	m, err := fault.NewMulti(
		Fault{Component: "R1", Deviation: 0.4},
		Fault{Component: "C3", Deviation: -0.4},
	)
	if err != nil {
		t.Fatal(err)
	}
	double, err := m.Apply(s.Dictionary().Golden())
	if err != nil {
		t.Fatal(err)
	}
	_, rejected, err = s.DiagnoseCircuit(context.Background(), double, omegas, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	// Not all doubles are rejectable; this specific large pair is far
	// off-manifold for this test vector — assert it is caught.
	if !rejected {
		t.Log("double fault not rejected at ratio 0.02 — checking at 0.01")
		_, rejected, err = s.DiagnoseCircuit(context.Background(), double, omegas, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if !rejected {
			t.Fatal("large double fault never rejected")
		}
	}
	// Rejection disabled → never rejected.
	_, rejected, err = s.DiagnoseCircuit(context.Background(), double, omegas, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rejected {
		t.Fatal("rejection fired with ratio 0")
	}
}

// TestIntegrationFitTransferMatchesSweep validates the public fitting
// API against a fresh AC sweep of the CUT.
func TestIntegrationFitTransferMatchesSweep(t *testing.T) {
	s, err := NewSession(PaperCUT())
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.FitTransfer(0, 3, numeric.Logspace(0.02, 50, 21))
	if err != nil {
		t.Fatal(err)
	}
	ac, err := analysis.NewAC(s.Dictionary().Golden())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{0.1, 0.9, 3, 20} {
		h, err := ac.Transfer("Vin", "out", w)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Hypot(real(h), imag(h))
		if got := r.Mag(w); math.Abs(got-want) > 1e-3*want+1e-9 {
			t.Fatalf("ω=%g: fitted %g vs solved %g", w, got, want)
		}
	}
	// Degenerate degrees rejected through the public API too.
	if _, err := s.FitTransfer(0, 0, numeric.Logspace(0.1, 10, 9)); err == nil {
		t.Fatal("denDeg 0 accepted")
	}
}

// TestIntegrationCoherentMeasurementDiagnosis runs the phasor-free
// measurement path at moderate noise and verifies the diagnosis survives
// (the examples' flow, asserted).
func TestIntegrationCoherentMeasurementDiagnosis(t *testing.T) {
	s, err := NewSession(PaperCUT())
	if err != nil {
		t.Fatal(err)
	}
	meas := signal.DefaultMeasureConfig()
	omegas, err := signal.CoherentOmegas([]float64{0.6, 4.5}, meas.SampleRate, meas.Samples)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := s.Diagnoser(context.Background(), omegas)
	if err != nil {
		t.Fatal(err)
	}

	gains := func(f Fault) []complex128 {
		t.Helper()
		circ, err := f.Apply(s.Dictionary().Golden())
		if err != nil {
			t.Fatal(err)
		}
		ac, err := analysis.NewAC(circ)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]complex128, len(omegas))
		for i, w := range omegas {
			h, err := ac.Transfer("Vin", "out", w)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = h
		}
		return out
	}

	goldenAmps, err := signal.MeasureTones(gains(Fault{}), omegas, meas, nil)
	if err != nil {
		t.Fatal(err)
	}
	noisy := meas
	noisy.SNRdB = 45
	noisy.ADCBits = 12
	rng := rand.New(rand.NewSource(4))
	correct := 0
	trials := []Fault{
		{Component: "R2", Deviation: 0.3},
		{Component: "C1", Deviation: -0.25},
		{Component: "R4", Deviation: 0.35},
		{Component: "C3", Deviation: -0.3},
	}
	for _, f := range trials {
		amps, err := signal.MeasureTones(gains(f), omegas, noisy, rng)
		if err != nil {
			t.Fatal(err)
		}
		point := make(geometry.VecN, len(amps))
		for i := range amps {
			point[i] = amps[i] - goldenAmps[i]
		}
		res, err := dg.Diagnose(point)
		if err != nil {
			t.Fatal(err)
		}
		if res.Best().Component == f.Component {
			correct++
		}
	}
	if correct < 3 {
		t.Fatalf("only %d/4 noisy measurements diagnosed", correct)
	}
}
