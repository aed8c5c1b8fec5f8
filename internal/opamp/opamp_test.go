package opamp

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/analysis"
	"repro/internal/circuit"
)

func TestParamsValidate(t *testing.T) {
	if err := Typical741().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{A0: 0, GBW: 1, Rin: 1, Rout: 1},
		{A0: 1, GBW: -1, Rin: 1, Rout: 1},
		{A0: 1, GBW: 1, Rin: 0, Rout: 1},
		{A0: 1, GBW: 1, Rin: 1, Rout: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestPole(t *testing.T) {
	p := Typical741()
	want := p.GBW / p.A0
	if got := p.Pole(); got != want {
		t.Fatalf("Pole = %g, want %g", got, want)
	}
}

// buildInverting returns an inverting amplifier (gain -rf/rin) using the
// macromodel.
func buildInverting(p Params, rin, rf float64) *circuit.Circuit {
	c := circuit.New("inv-macro")
	c.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("Ri", "in", "sum", rin))
	c.MustAdd(circuit.NewResistor("Rf", "sum", "out", rf))
	if err := Expand(c, "U1", "0", "sum", "out", p); err != nil {
		panic(err)
	}
	return c
}

func TestMacromodelInvertingAmp(t *testing.T) {
	c := buildInverting(Typical741(), 1000, 10000)
	ac, err := analysis.NewAC(c)
	if err != nil {
		t.Fatal(err)
	}
	// Low frequency: loop gain huge, gain ≈ -10.
	h, err := ac.Transfer("V1", "out", 100)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(h+10) > 0.01 {
		t.Fatalf("low-freq gain = %v, want about -10", h)
	}
	// At the closed-loop corner (GBW / noise gain = 6.28e6/11 ≈ 571k
	// rad/s) the gain magnitude drops to ~0.707 of 10.
	corner := Typical741().GBW / 11
	hc, err := ac.Transfer("V1", "out", corner)
	if err != nil {
		t.Fatal(err)
	}
	ratio := cmplx.Abs(hc) / 10
	if math.Abs(ratio-math.Sqrt(0.5)) > 0.05 {
		t.Fatalf("corner ratio = %g, want about 0.707", ratio)
	}
	// Far above GBW the gain collapses.
	hh, err := ac.Transfer("V1", "out", Typical741().GBW*100)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(hh) > 0.2 {
		t.Fatalf("super-GBW gain = %v, want tiny", cmplx.Abs(hh))
	}
}

func TestMacromodelMatchesIdealWhenIdeal(t *testing.T) {
	macro := buildInverting(Ideal(), 1000, 4000)
	acM, err := analysis.NewAC(macro)
	if err != nil {
		t.Fatal(err)
	}
	ideal := circuit.New("inv-ideal")
	ideal.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	ideal.MustAdd(circuit.NewResistor("Ri", "in", "sum", 1000))
	ideal.MustAdd(circuit.NewResistor("Rf", "sum", "out", 4000))
	ideal.MustAdd(circuit.NewIdealOpAmp("U1", "0", "sum", "out"))
	acI, err := analysis.NewAC(ideal)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{1, 100, 10000} {
		hm, err := acM.Transfer("V1", "out", w)
		if err != nil {
			t.Fatal(err)
		}
		hi, err := acI.Transfer("V1", "out", w)
		if err != nil {
			t.Fatal(err)
		}
		if cmplx.Abs(hm-hi) > 1e-3 {
			t.Fatalf("ω=%g: macro %v vs ideal %v", w, hm, hi)
		}
	}
}

func TestExpandElementNamesAndDuplicate(t *testing.T) {
	c := circuit.New("t")
	if err := Expand(c, "U1", "a", "b", "c", Typical741()); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"U1.Rin", "U1.E", "U1.Rp", "U1.Cp", "U1.Rout"} {
		if _, ok := c.Element(n); !ok {
			t.Errorf("missing expanded element %q", n)
		}
	}
	// Second expansion under the same name must fail (duplicate names).
	if err := Expand(c, "U1", "a", "b", "c", Typical741()); err == nil {
		t.Fatal("duplicate expansion accepted")
	}
	// Invalid parameters rejected before any mutation.
	if err := Expand(c, "U2", "a", "b", "c", Params{}); err == nil {
		t.Fatal("invalid params accepted")
	}
}

// Typical741 returns parameters close to the classic µA741:
// A0 = 2·10⁵, GBW = 2π·1 MHz, Rin = 2 MΩ, Rout = 75 Ω.
func Typical741() Params {
	return Params{A0: 2e5, GBW: 6.2832e6, Rin: 2e6, Rout: 75}
}
