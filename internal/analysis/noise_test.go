package analysis

import (
	"math"
	"testing"

	"repro/internal/circuit"
)

func TestOutputNoiseSingleResistor(t *testing.T) {
	// A resistor to ground observed directly: PSD = 4kTR (the full
	// open-circuit thermal noise), independent of frequency.
	c := circuit.New("r")
	c.MustAdd(circuit.NewISource("Ibias", "out", "0", 0)) // keeps the node referenced
	c.MustAdd(circuit.NewResistor("R1", "out", "0", 1000))
	c.MustAdd(circuit.NewResistor("R1b", "out", "0", 1e12)) // near-open companion
	contrib, total, err := OutputNoise(c, "out", 100, 300)
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * Boltzmann * 300 * 1000
	if math.Abs(total-want) > 0.01*want {
		t.Fatalf("total PSD = %g, want %g", total, want)
	}
	if len(contrib) != 2 {
		t.Fatalf("contributions = %d", len(contrib))
	}
}

func TestOutputNoiseDividerSplit(t *testing.T) {
	// Two equal resistors forming a divider from a (silenced) source:
	// each contributes (4kTR)·(1/2)² and the total equals the parallel
	// combination's 4kT(R/2).
	c := circuit.New("div")
	c.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("Ra", "in", "out", 2000))
	c.MustAdd(circuit.NewResistor("Rb", "out", "0", 2000))
	contrib, total, err := OutputNoise(c, "out", 50, 300)
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * Boltzmann * 300 * 1000 // 2k ∥ 2k = 1k
	if math.Abs(total-want) > 0.01*want {
		t.Fatalf("total = %g, want %g", total, want)
	}
	if math.Abs(contrib[0].PSD-contrib[1].PSD) > 0.01*contrib[0].PSD {
		t.Fatalf("equal resistors contribute unequally: %+v", contrib)
	}
}

func TestOutputNoiseRCRolloff(t *testing.T) {
	// R with shunt C: output noise density falls as 1/(1+(ωRC)²).
	c := circuit.New("rc")
	c.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("R1", "in", "out", 1000))
	c.MustAdd(circuit.NewCapacitor("C1", "out", "0", 1e-6))
	_, lo, err := OutputNoise(c, "out", 10, 300)
	if err != nil {
		t.Fatal(err)
	}
	_, hi, err := OutputNoise(c, "out", 1e5, 300)
	if err != nil {
		t.Fatal(err)
	}
	if hi > lo/100 {
		t.Fatalf("noise density did not roll off: %g vs %g", lo, hi)
	}
	// In-band density ≈ 4kTR.
	want := 4 * Boltzmann * 300 * 1000
	if math.Abs(lo-want) > 0.05*want {
		t.Fatalf("in-band density %g, want %g", lo, want)
	}
}

func TestOutputNoiseValidation(t *testing.T) {
	c := circuit.New("v")
	c.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	c.MustAdd(circuit.NewCapacitor("C1", "in", "0", 1))
	if _, _, err := OutputNoise(c, "in", 1, 300); err == nil {
		t.Fatal("resistorless circuit accepted")
	}
	c2 := circuit.New("r")
	c2.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	c2.MustAdd(circuit.NewResistor("R1", "in", "0", 1))
	if _, _, err := OutputNoise(c2, "in", 1, 0); err == nil {
		t.Fatal("zero temperature accepted")
	}
}
