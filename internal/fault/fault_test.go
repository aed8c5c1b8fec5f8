package fault

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
)

func TestFaultID(t *testing.T) {
	cases := map[Fault]string{
		{Component: "R3", Deviation: 0.2}:  "R3@+20%",
		{Component: "C1", Deviation: -0.4}: "C1@-40%",
		{}:                                 "golden",
		{Component: "R1", Deviation: 0.05}: "R1@+5%",
	}
	for f, want := range cases {
		if got := f.ID(); got != want {
			t.Errorf("ID(%+v) = %q, want %q", f, got, want)
		}
	}
}

func TestIDMatchesFmt(t *testing.T) {
	// Random bit patterns, random deviations in the paper's range, and
	// odd multiples of 1/8 (exact ties: 12.5 %, 37.5 %, …), all against
	// fmt's rendering.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var d float64
		switch i % 3 {
		case 0:
			d = math.Float64frombits(rng.Uint64())
		case 1:
			d = rng.Float64()*2 - 1
		default:
			d = float64(2*rng.Intn(16)-15) / 8
		}
		f := Fault{Component: "U1.Rout", Deviation: d}
		if got, want := f.ID(), fmtID(f); got != want {
			t.Fatalf("Fault%+v.ID() = %q, fmt renders %q", f, got, want)
		}
	}
	if got := (Multi{}).ID(); got != "" {
		t.Fatalf("empty Multi ID = %q", got)
	}
}

func TestParseIDRoundTrip(t *testing.T) {
	for _, f := range []Fault{
		{Component: "R3", Deviation: 0.2},
		{Component: "C1", Deviation: -0.4},
		{Component: "U1.Rout", Deviation: 0.1},
		{},
	} {
		got, err := ParseID(f.ID())
		if err != nil {
			t.Fatalf("ParseID(%q): %v", f.ID(), err)
		}
		if got.Component != f.Component || math.Abs(got.Deviation-f.Deviation) > 1e-9 {
			t.Fatalf("round trip %+v -> %+v", f, got)
		}
	}
	for _, bad := range []string{"", "R3", "R3@", "@+20%", "R3@x%", "R3@20",
		"R1@NaN%", "R1@+Inf%", "R1@20%x%",
		// IDs show whole percents: 0.4 % would come back as the golden.
		"R1@0.4%", "R1@-0.4%"} {
		if _, err := ParseID(bad); err == nil {
			t.Errorf("ParseID(%q) accepted", bad)
		}
	}
	// Range is the caller's check: −99.6 % renders as −100 %, and that
	// rendering must parse back.
	for id, dev := range map[string]float64{"R1@-99.6%": -0.996, "R1@-100%": -1, "R1@12.5%": 0.125, "R1@0%": 0} {
		f, err := ParseID(id)
		if err != nil || f.Deviation != dev {
			t.Errorf("ParseID(%q) = %+v, %v; want deviation %g", id, f, err, dev)
		}
	}
}

func TestScaleAndGolden(t *testing.T) {
	f := Fault{Component: "R1", Deviation: -0.4}
	if f.Scale() != 0.6 {
		t.Fatalf("Scale = %v", f.Scale())
	}
	if f.IsGolden() {
		t.Fatal("deviated fault reported golden")
	}
	if !(Fault{}).IsGolden() {
		t.Fatal("zero fault not golden")
	}
}

func golden() *circuit.Circuit {
	c := circuit.New("g")
	c.MustAdd(circuit.NewVSource("V1", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("R1", "in", "out", 1000))
	c.MustAdd(circuit.NewCapacitor("C1", "out", "0", 1e-6))
	return c
}

func TestApply(t *testing.T) {
	g := golden()
	f := Fault{Component: "R1", Deviation: 0.2}
	faulty, err := f.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := faulty.Value("R1")
	if math.Abs(v-1200) > 1e-9 {
		t.Fatalf("faulty R1 = %v, want 1200", v)
	}
	// Golden untouched.
	v, _ = g.Value("R1")
	if v != 1000 {
		t.Fatal("golden circuit mutated")
	}
	// Golden fault returns a clone.
	cl, err := (Fault{}).Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := cl.Value("R1"); v != 1000 {
		t.Fatal("golden clone wrong")
	}
	// Errors.
	if _, err := (Fault{Component: "R9", Deviation: 0.1}).Apply(g); err == nil {
		t.Fatal("missing component accepted")
	}
	if _, err := (Fault{Component: "R1", Deviation: -1}).Apply(g); err == nil {
		t.Fatal("-100% deviation accepted")
	}
}

func TestPaperDeviations(t *testing.T) {
	d := PaperDeviations()
	if len(d) != 8 {
		t.Fatalf("len = %d, want 8", len(d))
	}
	for _, v := range d {
		if v == 0 || math.Abs(v) > 0.4+1e-12 {
			t.Fatalf("bad paper deviation %v", v)
		}
	}
}

func TestNewUniverseValidation(t *testing.T) {
	if _, err := NewUniverse(nil, PaperDeviations()); err == nil {
		t.Fatal("empty components accepted")
	}
	if _, err := NewUniverse([]string{"R1", "R1"}, PaperDeviations()); err == nil {
		t.Fatal("duplicate components accepted")
	}
	if _, err := NewUniverse([]string{""}, PaperDeviations()); err == nil {
		t.Fatal("empty component name accepted")
	}
	if _, err := NewUniverse([]string{"R1"}, nil); err == nil {
		t.Fatal("empty deviations accepted")
	}
	if _, err := NewUniverse([]string{"R1"}, []float64{0}); err == nil {
		t.Fatal("zero deviation accepted")
	}
	if _, err := NewUniverse([]string{"R1"}, []float64{-1}); err == nil {
		t.Fatal("-100% accepted")
	}
	if _, err := NewUniverse([]string{"R1"}, []float64{math.NaN()}); err == nil {
		t.Fatal("NaN accepted")
	}
	// Dedup and sort.
	u, err := NewUniverse([]string{"R1"}, []float64{0.2, -0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Deviations) != 2 || u.Deviations[0] != -0.1 || u.Deviations[1] != 0.2 {
		t.Fatalf("deviations = %v", u.Deviations)
	}
}

func TestUniverseFaultsOrderAndSize(t *testing.T) {
	u, err := PaperUniverse([]string{"R1", "C1"})
	if err != nil {
		t.Fatal(err)
	}
	fs := u.Faults()
	if len(fs) != 16 || u.Size() != 16 {
		t.Fatalf("size = %d/%d, want 16", len(fs), u.Size())
	}
	if fs[0].Component != "R1" || fs[0].Deviation != -0.4 {
		t.Fatalf("first fault = %+v", fs[0])
	}
	if fs[8].Component != "C1" {
		t.Fatalf("ninth fault = %+v", fs[8])
	}
}

func TestBranches(t *testing.T) {
	u, _ := PaperUniverse([]string{"R1"})
	neg, err := u.NegativeBranch("R1")
	if err != nil {
		t.Fatal(err)
	}
	pos, err := u.PositiveBranch("R1")
	if err != nil {
		t.Fatal(err)
	}
	if len(neg) != 4 || len(pos) != 4 {
		t.Fatalf("branches = %d/%d, want 4/4", len(neg), len(pos))
	}
	for _, f := range neg {
		if f.Deviation >= 0 {
			t.Fatal("positive deviation in negative branch")
		}
	}
	if _, err := u.NegativeBranch("zz"); err == nil {
		t.Fatal("unknown component accepted")
	}
}

func TestUniverseValidateAgainstCircuit(t *testing.T) {
	g := golden()
	u, _ := PaperUniverse([]string{"R1", "C1"})
	if err := u.Validate(g); err != nil {
		t.Fatal(err)
	}
	u2, _ := PaperUniverse([]string{"R1", "V1"})
	if err := u2.Validate(g); err == nil {
		t.Fatal("non-Valued component accepted")
	}
	u3, _ := PaperUniverse([]string{"R9"})
	if err := u3.Validate(g); err == nil {
		t.Fatal("missing component accepted")
	}
}

func TestCatastrophic(t *testing.T) {
	g := golden()
	open := Catastrophic{Component: "R1", Open: true}
	if open.ID() != "R1#open" {
		t.Fatalf("ID = %q", open.ID())
	}
	c, err := open.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := c.Value("R1"); v != 1000*OpenScale {
		t.Fatalf("open R1 = %g", v)
	}
	// Capacitor open divides.
	copen := Catastrophic{Component: "C1", Open: true}
	c2, err := copen.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := c2.Value("C1"); math.Abs(v-1e-6/OpenScale) > 1e-24 {
		t.Fatalf("open C1 = %g", v)
	}
	cshort := Catastrophic{Component: "C1", Open: false}
	if cshort.ID() != "C1#short" {
		t.Fatalf("ID = %q", cshort.ID())
	}
	c3, err := cshort.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := c3.Value("C1"); math.Abs(v-1e-6/ShortScale) > 1e-9 {
		t.Fatalf("short C1 = %g", v)
	}
	if _, err := (Catastrophic{Component: "zz"}).Apply(g); err == nil {
		t.Fatal("missing component accepted")
	}
}

// Property: every universe fault applies cleanly to a compatible circuit
// and scales the right component by exactly 1+deviation.
func TestQuickUniverseApply(t *testing.T) {
	g := golden()
	u, _ := PaperUniverse([]string{"R1", "C1"})
	faults := u.Faults()
	f := func(idx uint) bool {
		fa := faults[idx%uint(len(faults))]
		faulty, err := fa.Apply(g)
		if err != nil {
			return false
		}
		want, _ := g.Value(fa.Component)
		got, _ := faulty.Value(fa.Component)
		return math.Abs(got-want*fa.Scale()) < 1e-9*want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}
