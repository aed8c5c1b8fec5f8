package analysis

import (
	"errors"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/circuit"
	"repro/internal/numeric"
)

// divider builds V1—R1—out—R2—gnd.
func divider(r1, r2 float64) *circuit.Circuit {
	c := circuit.New("divider")
	c.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("R1", "in", "out", r1))
	c.MustAdd(circuit.NewResistor("R2", "out", "0", r2))
	return c
}

func TestResistiveDivider(t *testing.T) {
	ac, err := NewAC(divider(1000, 3000))
	if err != nil {
		t.Fatal(err)
	}
	h, err := ac.Transfer("V1", "out", 1)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(h-0.75) > 1e-12 {
		t.Fatalf("H = %v, want 0.75", h)
	}
	// Dividers are frequency-flat.
	h2, _ := ac.Transfer("V1", "out", 1e6)
	if cmplx.Abs(h-h2) > 1e-12 {
		t.Fatal("divider response is not flat")
	}
}

func TestRCLowpass(t *testing.T) {
	// R = 1k, C = 1µ → ωc = 1000 rad/s.
	c := circuit.New("rc")
	c.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("R1", "in", "out", 1000))
	c.MustAdd(circuit.NewCapacitor("C1", "out", "0", 1e-6))
	ac, err := NewAC(c)
	if err != nil {
		t.Fatal(err)
	}
	// Closed form H = 1/(1 + jωRC).
	for _, w := range []float64{1, 100, 1000, 10000, 1e6} {
		h, err := ac.Transfer("V1", "out", w)
		if err != nil {
			t.Fatal(err)
		}
		want := 1 / (1 + complex(0, w*1e-3))
		if cmplx.Abs(h-want) > 1e-9 {
			t.Fatalf("ω=%g: H = %v, want %v", w, h, want)
		}
	}
	// -3 dB at the corner.
	h, _ := ac.Transfer("V1", "out", 1000)
	if db := numeric.Db(cmplx.Abs(h)); math.Abs(db+3.0103) > 0.001 {
		t.Fatalf("corner = %g dB, want -3.01", db)
	}
}

func TestDCBehaviour(t *testing.T) {
	// At ω=0 a capacitor opens and an inductor shorts.
	c := circuit.New("dc")
	c.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("R1", "in", "mid", 100))
	c.MustAdd(circuit.NewInductor("L1", "mid", "out", 1))
	c.MustAdd(circuit.NewResistor("R2", "out", "0", 100))
	c.MustAdd(circuit.NewCapacitor("C1", "out", "0", 1e-6))
	ac, err := NewAC(c)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ac.SolveAt(0)
	if err != nil {
		t.Fatal(err)
	}
	v, err := sol.NodeVoltage("out")
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(v-0.5) > 1e-12 {
		t.Fatalf("DC out = %v, want 0.5", v)
	}
}

func TestRLCResonance(t *testing.T) {
	// Series RLC: R=10, L=1m, C=1µ → ω0 = 1/sqrt(LC) ≈ 31623 rad/s.
	c := circuit.New("rlc")
	c.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("R1", "in", "a", 10))
	c.MustAdd(circuit.NewInductor("L1", "a", "b", 1e-3))
	c.MustAdd(circuit.NewCapacitor("C1", "b", "0", 1e-6))
	ac, err := NewAC(c)
	if err != nil {
		t.Fatal(err)
	}
	w0 := 1 / math.Sqrt(1e-3*1e-6)
	// At resonance the LC impedances cancel; all of Vin is across R, and
	// the cap voltage peaks at Q·Vin with Q = ω0 L / R = sqrt(L/C)/R.
	q := math.Sqrt(1e-3/1e-6) / 10
	h, err := ac.Transfer("V1", "b", w0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cmplx.Abs(h)-q) > 1e-6*q {
		t.Fatalf("resonant gain = %v, want Q = %v", cmplx.Abs(h), q)
	}
}

func TestIdealOpAmpInverting(t *testing.T) {
	// Inverting amp: gain -R2/R1 = -4.
	c := circuit.New("inv")
	c.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("R1", "in", "sum", 1000))
	c.MustAdd(circuit.NewResistor("R2", "sum", "out", 4000))
	c.MustAdd(circuit.NewIdealOpAmp("U1", "0", "sum", "out"))
	ac, err := NewAC(c)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ac.Transfer("V1", "out", 100)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(h+4) > 1e-9 {
		t.Fatalf("H = %v, want -4", h)
	}
	// Virtual ground holds.
	sol, _ := ac.SolveAt(100)
	vsum, _ := sol.NodeVoltage("sum")
	if cmplx.Abs(vsum) > 1e-9 {
		t.Fatalf("summing node = %v, want 0", vsum)
	}
}

func TestVCVSAmplifier(t *testing.T) {
	c := circuit.New("vcvs")
	c.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("Rin", "in", "0", 1e6))
	c.MustAdd(circuit.NewVCVS("E1", "out", "0", "in", "0", 7))
	c.MustAdd(circuit.NewResistor("Rload", "out", "0", 1000))
	ac, err := NewAC(c)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ac.Transfer("V1", "out", 10)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(h-7) > 1e-9 {
		t.Fatalf("H = %v, want 7", h)
	}
}

func TestVCCSIntoLoad(t *testing.T) {
	// gm = 2 mS into 1k load → gain 2 (inverting by current direction).
	c := circuit.New("vccs")
	c.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("Rin", "in", "0", 1e6))
	c.MustAdd(circuit.NewVCCS("G1", "out", "0", "in", "0", 2e-3))
	c.MustAdd(circuit.NewResistor("RL", "out", "0", 1000))
	ac, err := NewAC(c)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ac.Transfer("V1", "out", 10)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(h+2) > 1e-9 {
		t.Fatalf("H = %v, want -2", h)
	}
}

func TestCCVSAndCCCS(t *testing.T) {
	// V1 drives 1 V across R1=1k → source branch current -1 mA.
	// CCVS with R=2000 mirrors it: Vout = 2000 · I(V1) = -2 V.
	c := circuit.New("ccvs")
	c.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("R1", "in", "0", 1000))
	c.MustAdd(circuit.NewCCVS("H1", "out", "0", "V1", 2000))
	c.MustAdd(circuit.NewResistor("RL", "out", "0", 1000))
	ac, err := NewAC(c)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ac.Transfer("V1", "out", 10)
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(h+2) > 1e-9 {
		t.Fatalf("CCVS H = %v, want -2", h)
	}

	// CCCS: gain 3 of the same control current into RL=1k.
	c2 := circuit.New("cccs")
	c2.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	c2.MustAdd(circuit.NewResistor("R1", "in", "0", 1000))
	c2.MustAdd(circuit.NewCCCS("F1", "out", "0", "V1", 3))
	c2.MustAdd(circuit.NewResistor("RL", "out", "0", 1000))
	ac2, err := NewAC(c2)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := ac2.Transfer("V1", "out", 10)
	if err != nil {
		t.Fatal(err)
	}
	// I(V1) = -1 mA; CCCS pushes 3·I from out to 0, so V(out) = +3 V...
	// sign fixed by the stamp convention; magnitude must be 3.
	if math.Abs(cmplx.Abs(h2)-3) > 1e-9 {
		t.Fatalf("CCCS |H| = %v, want 3", cmplx.Abs(h2))
	}
}

func TestSweepAndLogSweep(t *testing.T) {
	ac, err := NewAC(divider(1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ac.Sweep("V1", "out", []float64{1, 10, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) != 3 {
		t.Fatalf("points = %d", len(resp.Points))
	}
	for _, p := range resp.Points {
		if math.Abs(p.Mag()-0.5) > 1e-12 {
			t.Fatalf("mag = %v, want 0.5", p.Mag())
		}
	}
	if got := resp.Points[0].MagDb(); math.Abs(got+6.0206) > 0.001 {
		t.Fatalf("db = %v, want about -6.02", got)
	}
	lr, err := ac.LogSweep("V1", "out", 0.1, 1000, 41)
	if err != nil {
		t.Fatal(err)
	}
	if len(lr.Points) != 41 || lr.Points[0].Omega != 0.1 || lr.Points[40].Omega != 1000 {
		t.Fatal("log sweep endpoints wrong")
	}
	if _, err := ac.LogSweep("V1", "out", -1, 10, 5); err == nil {
		t.Fatal("bad bounds accepted")
	}
	peak, at := lr.PeakMag()
	if math.Abs(peak-0.5) > 1e-12 || at != 0.1 {
		t.Fatalf("peak = %v at %v", peak, at)
	}
}

func TestTransferErrors(t *testing.T) {
	ac, err := NewAC(divider(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ac.Transfer("nope", "out", 1); err == nil {
		t.Fatal("missing source accepted")
	}
	if _, err := ac.Transfer("R1", "out", 1); err == nil {
		t.Fatal("non-source element accepted")
	}
	if _, err := ac.Transfer("V1", "ghost", 1); err == nil {
		t.Fatal("missing out node accepted")
	}
	if _, err := ac.SolveAt(-1); err == nil {
		t.Fatal("negative frequency accepted")
	}
	if _, err := ac.SolveAt(math.NaN()); err == nil {
		t.Fatal("NaN frequency accepted")
	}
}

func TestSingularSystemReported(t *testing.T) {
	// An ideal opamp with its + input driven and no feedback: the MNA
	// system is structurally singular.
	c := circuit.New("bad")
	c.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	c.MustAdd(circuit.NewIdealOpAmp("U1", "in", "in", "out"))
	c.MustAdd(circuit.NewResistor("RL", "out", "0", 1))
	ac, err := NewAC(c)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ac.SolveAt(1)
	if err == nil {
		t.Fatal("singular system solved")
	}
	if !errors.Is(err, ErrNoSolution) {
		t.Fatalf("err = %v, want ErrNoSolution", err)
	}
}

func TestSensitivity(t *testing.T) {
	// Divider H = R2/(R1+R2); dH/dR2 = R1/(R1+R2)² = 0.25/2000... with
	// R1 = R2 = 1k: d|H|/dR2 = 1000/(2000²) = 2.5e-4 per ohm.
	c := divider(1000, 1000)
	s, err := Sensitivity(c, "R2", "V1", "out", 10, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-2.5e-4) > 1e-8 {
		t.Fatalf("sensitivity = %v, want 2.5e-4", s)
	}
	// Relative sensitivity: S = (R2/|H|)·d|H|/dR2 = (1000/0.5)·2.5e-4 = 0.5.
	rs, err := RelativeSensitivity(c, "R2", "V1", "out", 10, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rs-0.5) > 1e-6 {
		t.Fatalf("relative sensitivity = %v, want 0.5", rs)
	}
	if _, err := Sensitivity(c, "R2", "V1", "out", 10, 0); err == nil {
		t.Fatal("zero step accepted")
	}
	if _, err := Sensitivity(c, "zz", "V1", "out", 10, 1e-5); err == nil {
		t.Fatal("missing component accepted")
	}
}

func TestResponseAccessors(t *testing.T) {
	ac, err := NewAC(divider(1000, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if ac.Size() != 3 { // 2 nodes + source branch
		t.Fatalf("Size = %d, want 3", ac.Size())
	}
	resp, err := ac.Sweep("V1", "out", []float64{1, 10})
	if err != nil {
		t.Fatal(err)
	}
	mags := resp.Mags()
	if len(mags) != 2 || math.Abs(mags[0]-0.5) > 1e-12 {
		t.Fatalf("Mags = %v", mags)
	}
	// A resistive divider has zero phase.
	if ph := resp.Points[0].PhaseDeg(); math.Abs(ph) > 1e-9 {
		t.Fatalf("PhaseDeg = %g, want 0", ph)
	}
	// An RC at the corner has -45°.
	rc := circuit.New("rc")
	rc.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	rc.MustAdd(circuit.NewResistor("R1", "in", "out", 1000))
	rc.MustAdd(circuit.NewCapacitor("C1", "out", "0", 1e-6))
	acrc, err := NewAC(rc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := acrc.Sweep("V1", "out", []float64{1000})
	if err != nil {
		t.Fatal(err)
	}
	if ph := r2.Points[0].PhaseDeg(); math.Abs(ph+45) > 1e-6 {
		t.Fatalf("corner phase = %g, want -45", ph)
	}
}
