package numeric

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPolyDegreeAndTrim(t *testing.T) {
	cases := []struct {
		p    Poly
		want int
	}{
		{Poly{}, -1},
		{Poly{0}, -1},
		{Poly{1}, 0},
		{Poly{0, 1}, 1},
		{Poly{1, 2, 0, 0}, 1},
	}
	for _, c := range cases {
		if got := c.p.Degree(); got != c.want {
			t.Errorf("Degree(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	tr := Poly{1, 2, 0, 0}.Trim()
	if len(tr) != 2 {
		t.Fatalf("Trim len = %d, want 2", len(tr))
	}
}

func TestPolyEvalHorner(t *testing.T) {
	p := Poly{1, -2, 3} // 1 - 2s + 3s²
	got := p.Eval(2)
	if got != complex(1-4+12, 0) {
		t.Fatalf("Eval(2) = %v, want 9", got)
	}
	// At jω: 1 - 2jω - 3ω².
	om := 1.5
	want := complex(1-3*om*om, -2*om)
	if d := cmplx.Abs(p.Eval(complex(0, om)) - want); d > 1e-14 {
		t.Fatalf("Eval(j1.5) off by %g", d)
	}
}

func TestPolyArithmetic(t *testing.T) {
	p := Poly{1, 1} // 1 + s
	sc := p.ScalePoly(3)
	if sc[0] != 3 || sc[1] != 3 {
		t.Fatalf("scale = %v", sc)
	}
}

func TestRootsQuadratic(t *testing.T) {
	// (s-1)(s-2) = s² - 3s + 2.
	p := Poly{2, -3, 1}
	roots, err := p.Roots()
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2", len(roots))
	}
	re := []float64{real(roots[0]), real(roots[1])}
	sort.Float64s(re)
	if math.Abs(re[0]-1) > 1e-9 || math.Abs(re[1]-2) > 1e-9 {
		t.Fatalf("roots = %v, want 1 and 2", roots)
	}
}

func TestRootsComplexPair(t *testing.T) {
	// s² + s + 1: roots at -0.5 ± j·sqrt(3)/2.
	p := Poly{1, 1, 1}
	roots, err := p.Roots()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range roots {
		if math.Abs(real(r)+0.5) > 1e-9 || math.Abs(math.Abs(imag(r))-math.Sqrt(3)/2) > 1e-9 {
			t.Fatalf("unexpected root %v", r)
		}
	}
}

func TestRootsConstantAndEmpty(t *testing.T) {
	if r, err := (Poly{5}).Roots(); err != nil || r != nil {
		t.Fatalf("constant roots = %v, %v", r, err)
	}
	if r, err := (Poly{}).Roots(); err != nil || r != nil {
		t.Fatalf("empty roots = %v, %v", r, err)
	}
}

// Property: evaluating the polynomial at each reported root gives ~0.
func TestQuickRootsAreRoots(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		deg := 1 + r.Intn(5)
		p := make(Poly, deg+1)
		for i := range p {
			p[i] = r.NormFloat64()
		}
		p[deg] = 1 + math.Abs(r.NormFloat64()) // keep it genuinely degree deg
		roots, err := p.Roots()
		if err != nil {
			return true // convergence failure is reported, not wrong
		}
		scale := 0.0
		for _, c := range p {
			scale += math.Abs(c)
		}
		for _, z := range roots {
			// Scale tolerance by |z|^deg to keep large roots fair.
			m := math.Max(1, math.Pow(cmplx.Abs(z), float64(deg)))
			if cmplx.Abs(p.Eval(z)) > 1e-6*scale*m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRationalSecondOrderLowpass(t *testing.T) {
	h := Rational{Num: Poly{1}, Den: Poly{1, math.Sqrt2, 1}} // Butterworth, ω0 = 1
	// DC gain 1.
	if m := h.Mag(1e-6); math.Abs(m-1) > 1e-3 {
		t.Fatalf("DC mag = %g, want 1", m)
	}
	// -3 dB at ω0 for Butterworth.
	if db := h.MagDb(1); math.Abs(db+3.0103) > 0.01 {
		t.Fatalf("mag at ω0 = %g dB, want -3.01", db)
	}
	// -40 dB/decade asymptote: at ω = 100, about -80 dB.
	if db := h.MagDb(100); math.Abs(db+80) > 0.1 {
		t.Fatalf("mag at 100ω0 = %g dB, want about -80", db)
	}
	// Phase goes from 0 to -π.
	if ph := h.Phase(1e-6); math.Abs(ph) > 1e-3 {
		t.Fatalf("DC phase = %g, want 0", ph)
	}
	if ph := h.Phase(1e6); math.Abs(ph+math.Pi) > 1e-2 && math.Abs(ph-math.Pi) > 1e-2 {
		t.Fatalf("HF phase = %g, want ±π", ph)
	}
}

func TestRationalBandpassPeak(t *testing.T) {
	h := Rational{Num: Poly{0, 0.4}, Den: Poly{4, 0.4, 1}} // ω0 = 2, Q = 5
	// Peak gain 1 at ω0.
	if m := h.Mag(2); math.Abs(m-1) > 1e-9 {
		t.Fatalf("peak mag = %g, want 1", m)
	}
	if h.Mag(0.02) > 0.1 || h.Mag(200) > 0.1 {
		t.Fatal("bandpass skirts are not attenuating")
	}
}

func TestRationalHighpass(t *testing.T) {
	h := Rational{Num: Poly{0, 0, 2}, Den: Poly{1, 1, 1}} // gain 2, ω0 = 1, Q = 1
	if m := h.Mag(1e-4); m > 1e-6 {
		t.Fatalf("DC mag = %g, want about 0", m)
	}
	if m := h.Mag(1e4); math.Abs(m-2) > 1e-3 {
		t.Fatalf("HF mag = %g, want 2", m)
	}
}

func TestRationalPolesZeros(t *testing.T) {
	h := Rational{Num: Poly{9}, Den: Poly{9, 6, 1}} // ω0 = 3, Q = 0.5
	poles, err := h.Poles()
	if err != nil {
		t.Fatal(err)
	}
	if len(poles) != 2 {
		t.Fatalf("got %d poles, want 2", len(poles))
	}
	// Product of poles = ω0² (monic denominator's constant term).
	prod := poles[0] * poles[1]
	if cmplx.Abs(prod-9) > 1e-6 {
		t.Fatalf("pole product = %v, want 9", prod)
	}
	zeros, err := h.Zeros()
	if err != nil {
		t.Fatal(err)
	}
	if len(zeros) != 0 {
		t.Fatalf("lowpass zeros = %v, want none", zeros)
	}
}

func TestPolyString(t *testing.T) {
	if s := (Poly{1, 0, 2}).String(); s != "1 + 2s^2" {
		t.Fatalf("String = %q", s)
	}
	if s := (Poly{}).String(); s != "0" {
		t.Fatalf("String = %q", s)
	}
}
