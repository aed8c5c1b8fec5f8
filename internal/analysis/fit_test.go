package analysis

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/circuit"
	"repro/internal/numeric"
)

func TestFitRationalRCLowpass(t *testing.T) {
	// RC lowpass with RC = 1e-3: H = 1/(1 + s·1e-3).
	c := circuit.New("rc")
	c.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("R1", "in", "out", 1000))
	c.MustAdd(circuit.NewCapacitor("C1", "out", "0", 1e-6))
	ac, err := NewAC(c)
	if err != nil {
		t.Fatal(err)
	}
	omegas := numeric.Logspace(10, 1e5, 9)
	r, err := ac.FitRational("V1", "out", 0, 1, omegas)
	if err != nil {
		t.Fatal(err)
	}
	// Normalize: N/D with D = d0 + d1 s; H(0) = n0/d0 = 1; time constant
	// d1/d0 = 1e-3.
	if math.Abs(r.Num[0]/r.Den[0]-1) > 1e-6 {
		t.Fatalf("DC gain = %g", r.Num[0]/r.Den[0])
	}
	if math.Abs(r.Den[1]/r.Den[0]-1e-3) > 1e-9 {
		t.Fatalf("time constant = %g", r.Den[1]/r.Den[0])
	}
	// One pole at -1000.
	poles, err := r.Poles()
	if err != nil {
		t.Fatal(err)
	}
	if len(poles) != 1 || math.Abs(real(poles[0])+1000) > 1e-3 {
		t.Fatalf("poles = %v, want [-1000]", poles)
	}
	// Validation error tiny across a wider band.
	q, err := fitQuality(ac, r, "V1", "out", numeric.Logspace(1, 1e6, 25))
	if err != nil {
		t.Fatal(err)
	}
	if q > 1e-6 {
		t.Fatalf("fit quality = %g", q)
	}
}

func TestFitRationalSecondOrder(t *testing.T) {
	// Sallen-Key-like behaviour from an RLC divider: series R-L, shunt C:
	// H = 1/(1 + sRC + s²LC), ω0 = 1/sqrt(LC), Q = sqrt(L/C)/R.
	c := circuit.New("rlc")
	c.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("R1", "in", "a", 2))
	c.MustAdd(circuit.NewInductor("L1", "a", "out", 1))
	c.MustAdd(circuit.NewCapacitor("C1", "out", "0", 1))
	ac, err := NewAC(c)
	if err != nil {
		t.Fatal(err)
	}
	omegas := numeric.Logspace(0.05, 20, 15)
	r, err := ac.FitRational("V1", "out", 0, 2, omegas)
	if err != nil {
		t.Fatal(err)
	}
	// D(s) = d0 + d1·s + d2·s²: ω0 = sqrt(d0/d2), Q = sqrt(d0·d2)/d1.
	if len(r.Den) != 3 || len(r.Num) == 0 {
		t.Fatalf("fit = %v / %v, want a second-order all-pole form", r.Num, r.Den)
	}
	d0, d1, d2 := r.Den[0], r.Den[1], r.Den[2]
	w0, q, dc := math.Sqrt(d0/d2), math.Sqrt(d0*d2)/d1, r.Num[0]/d0
	if math.Abs(w0-1) > 1e-6 {
		t.Fatalf("ω0 = %g, want 1", w0)
	}
	if math.Abs(q-0.5) > 1e-6 {
		t.Fatalf("Q = %g, want 0.5", q)
	}
	if math.Abs(dc-1) > 1e-6 {
		t.Fatalf("DC gain = %g, want 1", dc)
	}
	// Poles: complex pair or real pair with product ω0² = 1.
	poles, err := r.Poles()
	if err != nil {
		t.Fatal(err)
	}
	if len(poles) != 2 {
		t.Fatalf("poles = %v", poles)
	}
	for _, p := range poles {
		if real(p) >= 0 {
			t.Fatalf("unstable fitted pole %v", p)
		}
	}
}

func TestFitRationalValidation(t *testing.T) {
	c := circuit.New("r")
	c.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("R1", "in", "0", 1))
	ac, err := NewAC(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ac.FitRational("V1", "in", -1, 1, []float64{1, 2, 3}); err == nil {
		t.Fatal("negative numDeg accepted")
	}
	if _, err := ac.FitRational("V1", "in", 0, 0, []float64{1, 2, 3}); err == nil {
		t.Fatal("denDeg 0 accepted")
	}
	if _, err := ac.FitRational("V1", "in", 2, 3, []float64{1, 2}); err == nil {
		t.Fatal("too few samples accepted")
	}
}

func TestFitPaperCUTThirdOrder(t *testing.T) {
	// The 7-passive NF lowpass is third order (three capacitors, no
	// loops of capacitors): an exact (0,3) fit must exist and its poles
	// must all be in the left half plane.
	c := circuit.New("nf7")
	c.MustAdd(circuit.NewVSource("Vin", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("R1", "in", "m", 1))
	c.MustAdd(circuit.NewCapacitor("C1", "m", "0", 1))
	c.MustAdd(circuit.NewResistor("R2", "m", "a", 1))
	c.MustAdd(circuit.NewCapacitor("C2", "a", "0", 2))
	c.MustAdd(circuit.NewResistor("R3", "a", "vg", 1))
	c.MustAdd(circuit.NewResistor("R4", "a", "out", 1))
	c.MustAdd(circuit.NewCapacitor("C3", "vg", "out", 0.5))
	c.MustAdd(circuit.NewIdealOpAmp("U1", "0", "vg", "out"))
	ac, err := NewAC(c)
	if err != nil {
		t.Fatal(err)
	}
	omegas := numeric.Logspace(0.02, 50, 21)
	r, err := ac.FitRational("Vin", "out", 0, 3, omegas)
	if err != nil {
		t.Fatal(err)
	}
	q, err := fitQuality(ac, r, "Vin", "out", numeric.Logspace(0.01, 100, 31))
	if err != nil {
		t.Fatal(err)
	}
	if q > 1e-4 {
		t.Fatalf("3rd-order fit quality = %g", q)
	}
	poles, err := r.Poles()
	if err != nil {
		t.Fatal(err)
	}
	if len(poles) != 3 {
		t.Fatalf("poles = %v", poles)
	}
	for _, p := range poles {
		if real(p) >= 0 {
			t.Fatalf("unstable pole %v", p)
		}
	}
	// DC gain magnitude 0.5 (inverting).
	if math.Abs(math.Abs(r.Num[0]/r.Den[0])-0.5) > 1e-4 {
		t.Fatalf("DC gain = %g", r.Num[0]/r.Den[0])
	}
}

// fitQuality returns the worst relative magnitude error of the fit r
// against the circuit's transfer function over omegas.
func fitQuality(ac *AC, r numeric.Rational, source, outNode string, omegas []float64) (float64, error) {
	var worst float64
	for _, w := range omegas {
		h, err := ac.Transfer(source, outNode, w)
		if err != nil {
			return 0, err
		}
		want := cmplx.Abs(h)
		got := r.Mag(w)
		var rel float64
		if want > 1e-15 {
			rel = math.Abs(got-want) / want
		} else {
			rel = math.Abs(got - want)
		}
		if rel > worst {
			worst = rel
		}
	}
	return worst, nil
}
