package transient

import (
	"math"
	"testing"

	"repro/internal/analysis"
	"repro/internal/circuit"
)

// Step returns 0 before t0 and level after.
func Step(level, t0 float64) Waveform {
	return func(t float64) float64 {
		if t < t0 {
			return 0
		}
		return level
	}
}

func TestWaveformHelpers(t *testing.T) {
	s := Sine(2, 1, 0)
	if s(0) != 0 || math.Abs(s(math.Pi/2)-2) > 1e-12 {
		t.Fatal("Sine wrong")
	}
	st := Step(5, 1)
	if st(0.5) != 0 || st(1.5) != 5 {
		t.Fatal("Step wrong")
	}
	mt, err := Multitone([]float64{1, 0.5}, []float64{1, 2}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mt(0)-1.5) > 1e-12 {
		t.Fatalf("Multitone(0) = %g, want 1.5", mt(0))
	}
	if _, err := Multitone([]float64{1}, []float64{1, 2}, []float64{0, 0}); err == nil {
		t.Fatal("ragged multitone accepted")
	}
}

func rcCircuit() *circuit.Circuit {
	c := circuit.New("rc")
	c.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("R1", "in", "out", 1))
	c.MustAdd(circuit.NewCapacitor("C1", "out", "0", 1))
	return c
}

func TestRunValidation(t *testing.T) {
	c := rcCircuit()
	if _, err := Run(c, Config{Step: 0, Duration: 1}); err == nil {
		t.Fatal("zero step accepted")
	}
	if _, err := Run(c, Config{Step: 1, Duration: 0.5}); err == nil {
		t.Fatal("duration < step accepted")
	}
}

func TestRCStepResponse(t *testing.T) {
	// v_out(t) = 1 - exp(-t/RC) for a unit step at t=0 (R=C=1).
	c := rcCircuit()
	res, err := Run(c, Config{
		Step:     1e-3,
		Duration: 5,
		Sources:  map[string]Waveform{"V1": Step(1, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Voltage("out")
	if err != nil {
		t.Fatal(err)
	}
	for i, tm := range res.Times {
		want := 1 - math.Exp(-tm)
		if math.Abs(v[i]-want) > 5e-3 {
			t.Fatalf("t=%g: v=%g, want %g", tm, v[i], want)
		}
	}
	if _, err := res.Voltage("ghost"); err == nil {
		t.Fatal("ghost node accepted")
	}
}

// steadyStateAmpPhase extracts amplitude and phase of the last full
// cycle of a settled sinusoidal response by least-squares fit.
func steadyStateAmpPhase(times, v []float64, omega, tail float64) (float64, float64) {
	// Fit v ≈ a·cos(ωt) + b·sin(ωt) over t >= tail.
	var saa, sab, sbb, sav, sbv float64
	for i, tm := range times {
		if tm < tail {
			continue
		}
		c := math.Cos(omega * tm)
		s := math.Sin(omega * tm)
		saa += c * c
		sab += c * s
		sbb += s * s
		sav += c * v[i]
		sbv += s * v[i]
	}
	det := saa*sbb - sab*sab
	a := (sav*sbb - sbv*sab) / det
	b := (sbv*saa - sav*sab) / det
	return math.Hypot(a, b), math.Atan2(-b, a) // v = A·cos(ωt + φ)
}

func TestRCSineMatchesACAnalysis(t *testing.T) {
	// Drive the RC at ω = 2 rad/s and compare the settled amplitude and
	// phase against the frequency-domain solution.
	c := rcCircuit()
	omega := 2.0
	res, err := Run(c, Config{
		Step:     1e-3,
		Duration: 30,
		Sources:  map[string]Waveform{"V1": Sine(1, omega, math.Pi/2)}, // cos(ωt)
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Voltage("out")
	if err != nil {
		t.Fatal(err)
	}
	amp, ph := steadyStateAmpPhase(res.Times, v, omega, 20)

	ac, err := analysis.NewAC(c)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ac.Transfer("V1", "out", omega)
	if err != nil {
		t.Fatal(err)
	}
	wantAmp := math.Hypot(real(h), imag(h))
	wantPh := math.Atan2(imag(h), real(h))
	if math.Abs(amp-wantAmp) > 2e-3 {
		t.Fatalf("amplitude %g, want %g", amp, wantAmp)
	}
	if math.Abs(math.Mod(ph-wantPh+3*math.Pi, 2*math.Pi)-math.Pi) > 2e-2 {
		t.Fatalf("phase %g, want %g", ph, wantPh)
	}
}

func TestRLCRingingFrequency(t *testing.T) {
	// Series RLC (R=0.2, L=1, C=1): underdamped step response rings at
	// ω_d = sqrt(1/LC - (R/2L)²) ≈ 0.995 rad/s.
	c := circuit.New("rlc")
	c.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("R1", "in", "a", 0.2))
	c.MustAdd(circuit.NewInductor("L1", "a", "out", 1))
	c.MustAdd(circuit.NewCapacitor("C1", "out", "0", 1))
	res, err := Run(c, Config{
		Step:     1e-3,
		Duration: 40,
		Sources:  map[string]Waveform{"V1": Step(1, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Voltage("out")
	if err != nil {
		t.Fatal(err)
	}
	// Find zero crossings of v-1 (the ring around the final value).
	var crossings []float64
	for i := 1; i < len(v); i++ {
		a, b := v[i-1]-1, v[i]-1
		if a < 0 && b >= 0 || a > 0 && b <= 0 {
			crossings = append(crossings, res.Times[i])
		}
	}
	if len(crossings) < 6 {
		t.Fatalf("only %d crossings — not ringing", len(crossings))
	}
	// Average half-period from consecutive crossings.
	first, last := crossings[0], crossings[len(crossings)-1]
	half := (last - first) / float64(len(crossings)-1)
	wd := math.Pi / half
	want := math.Sqrt(1 - 0.01)
	if math.Abs(wd-want) > 0.02 {
		t.Fatalf("ringing at %g rad/s, want %g", wd, want)
	}
	// Final value settles to 1 (cap charged, no current).
	if math.Abs(v[len(v)-1]-1) > 0.05 {
		t.Fatalf("final value %g, want 1", v[len(v)-1])
	}
}

func TestOpAmpInvertingTransient(t *testing.T) {
	// Ideal inverting amplifier: v_out = -4·v_in at every instant.
	c := circuit.New("inv")
	c.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("R1", "in", "sum", 1000))
	c.MustAdd(circuit.NewResistor("R2", "sum", "out", 4000))
	c.MustAdd(circuit.NewIdealOpAmp("U1", "0", "sum", "out"))
	res, err := Run(c, Config{
		Step:     1e-3,
		Duration: 2,
		Sources:  map[string]Waveform{"V1": Sine(0.5, 3, 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	vout, err := res.Voltage("out")
	if err != nil {
		t.Fatal(err)
	}
	for i, tm := range res.Times {
		want := -4 * 0.5 * math.Sin(3*tm)
		if math.Abs(vout[i]-want) > 1e-9 {
			t.Fatalf("t=%g: out=%g, want %g", tm, vout[i], want)
		}
	}
}

func TestCurrentSourceAndDefaults(t *testing.T) {
	// A 2 A DC current source (default waveform = real part of phasor)
	// into 5 Ω: node voltage ±10 V depending on orientation; magnitude
	// must be 10.
	c := circuit.New("isrc")
	c.MustAdd(circuit.NewISource("I1", "0", "out", 2))
	c.MustAdd(circuit.NewResistor("R1", "out", "0", 5))
	res, err := Run(c, Config{Step: 0.1, Duration: 1})
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Voltage("out")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(math.Abs(v[len(v)-1])-10) > 1e-9 {
		t.Fatalf("|v| = %g, want 10", math.Abs(v[len(v)-1]))
	}
}

func TestVCVSInTransient(t *testing.T) {
	c := circuit.New("vcvs")
	c.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("Ri", "in", "0", 1e6))
	c.MustAdd(circuit.NewVCVS("E1", "out", "0", "in", "0", 3))
	c.MustAdd(circuit.NewResistor("RL", "out", "0", 100))
	res, err := Run(c, Config{
		Step:     0.01,
		Duration: 1,
		Sources:  map[string]Waveform{"V1": Step(2, 0.5)},
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := res.Voltage("out")
	if err != nil {
		t.Fatal(err)
	}
	// Before the step: 0; after: 6.
	if math.Abs(v[10]) > 1e-9 {
		t.Fatalf("pre-step v = %g", v[10])
	}
	if math.Abs(v[len(v)-1]-6) > 1e-9 {
		t.Fatalf("post-step v = %g, want 6", v[len(v)-1])
	}
}
