package fault

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewMultiValidation(t *testing.T) {
	if _, err := NewMulti(); err == nil {
		t.Fatal("empty multi accepted")
	}
	if _, err := NewMulti(Fault{Component: "R1"}); err == nil {
		t.Fatal("golden part accepted")
	}
	if _, err := NewMulti(
		Fault{Component: "R1", Deviation: 0.1},
		Fault{Component: "R1", Deviation: 0.2},
	); err == nil {
		t.Fatal("duplicate component accepted")
	}
	// Nonpositive scale is a construction error, not an apply-time one —
	// matching single-fault validation in universe generation.
	if _, err := NewMulti(
		Fault{Component: "R1", Deviation: -1},
		Fault{Component: "C1", Deviation: 0.1},
	); err == nil {
		t.Fatal("nonpositive scale accepted at construction")
	}
	m, err := NewMulti(
		Fault{Component: "R3", Deviation: 0.3},
		Fault{Component: "C1", Deviation: -0.2},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Sorted by component name; ID joins with +.
	if m.ID() != "C1@-20%+R3@+30%" {
		t.Fatalf("ID = %q", m.ID())
	}
}

func TestParseSetIDRoundTrip(t *testing.T) {
	for _, id := range []string{"golden", "R3@+25%", "C1@-20%+R3@+30%", "C1@-20%+R2@+10%+R3@+30%"} {
		s, err := ParseSetID(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if s.ID() != id {
			t.Fatalf("round-trip %q -> %q", id, s.ID())
		}
	}
	if s, _ := ParseSetID("golden"); len(s.Parts()) != 0 {
		t.Fatal("golden has parts")
	}
	if s, _ := ParseSetID("R3@+25%"); len(s.Parts()) != 1 {
		t.Fatal("single fault parts != 1")
	}
	for _, bad := range []string{"", "R3", "R3@+25%+", "R3@+25%+R3@-10%",
		"R1@NaN%", "R1@+Inf%", "R1@20%x%", "R1@NaN%+R2@+10%", "R1@+10%+R2@-Inf%",
		// −99.6 % is a legal part, but its ID reads −100 %, which no
		// multi accepts.
		"R1@-99.6%+R2@+10%"} {
		if _, err := ParseSetID(bad); err == nil {
			t.Fatalf("malformed id %q accepted", bad)
		}
	}
}

func TestUniversePairs(t *testing.T) {
	u, err := NewUniverse([]string{"R1", "R2", "C1"}, []float64{-0.2, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := u.Pairs(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 3 component pairs × 2×2 deviation combos.
	if len(pairs) != 12 {
		t.Fatalf("got %d pairs, want 12", len(pairs))
	}
	seen := make(map[string]bool)
	for _, m := range pairs {
		if len(m) != 2 {
			t.Fatalf("pair %v has %d parts", m, len(m))
		}
		if seen[m.ID()] {
			t.Fatalf("duplicate pair %s", m.ID())
		}
		seen[m.ID()] = true
	}
	// Canonical order: first pair sweeps (R1, R2) with R1 outermost.
	if pairs[0].ID() != "R1@-20%+R2@-20%" || pairs[1].ID() != "R1@-20%+R2@+20%" {
		t.Fatalf("unexpected order: %s, %s", pairs[0].ID(), pairs[1].ID())
	}
	capped, err := u.Pairs(nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 5 {
		t.Fatalf("cap ignored: %d", len(capped))
	}
	for i := range capped {
		if capped[i].ID() != pairs[i].ID() {
			t.Fatal("cap is not a prefix of the systematic order")
		}
	}
	single, _ := NewUniverse([]string{"R1"}, []float64{0.1})
	if _, err := single.Pairs(nil, 0); err == nil {
		t.Fatal("pairs over one component accepted")
	}
}

func TestMultiApply(t *testing.T) {
	g := golden()
	m, err := NewMulti(
		Fault{Component: "R1", Deviation: 0.2},
		Fault{Component: "C1", Deviation: -0.4},
	)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := c.Value("R1")
	cv, _ := c.Value("C1")
	if math.Abs(r-1200) > 1e-9 || math.Abs(cv-0.6e-6) > 1e-15 {
		t.Fatalf("applied values %g, %g", r, cv)
	}
	// Golden untouched.
	if v, _ := g.Value("R1"); v != 1000 {
		t.Fatal("golden mutated")
	}
	// Bad component inside.
	bad := Multi{{Component: "R9", Deviation: 0.1}}
	if _, err := bad.Apply(g); err == nil {
		t.Fatal("missing component accepted")
	}
	if _, err := (Multi{}).Apply(g); err == nil {
		t.Fatal("empty apply accepted")
	}
}

func TestRandomMulti(t *testing.T) {
	u, _ := PaperUniverse([]string{"R1", "R2", "R3", "C1"})
	rng := rand.New(rand.NewSource(3))
	m, err := RandomMulti(u, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m[0].Component == m[1].Component {
		t.Fatalf("multi = %v", m)
	}
	for _, f := range m {
		if f.Deviation == 0 {
			t.Fatal("zero deviation drawn")
		}
	}
	if _, err := RandomMulti(u, 1, rng); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := RandomMulti(u, 9, rng); err == nil {
		t.Fatal("n > components accepted")
	}
	if _, err := RandomMulti(u, 2, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestTolerancePerturb(t *testing.T) {
	g := golden()
	tol := Tolerance{Sigma: 0.02}
	rng := rand.New(rand.NewSource(5))
	c, err := tol.Perturb(g, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Both components moved, within ±3σ = ±6%.
	for _, name := range []string{"R1", "C1"} {
		before, _ := g.Value(name)
		after, _ := c.Value(name)
		rel := math.Abs(after-before) / before
		if rel == 0 {
			t.Errorf("%s unperturbed", name)
		}
		if rel > 0.061 {
			t.Errorf("%s moved %.1f%%, beyond 3σ", name, rel*100)
		}
	}
	// Exclusion.
	c2, err := tol.Perturb(g, rand.New(rand.NewSource(5)), "R1")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := c2.Value("R1"); v != 1000 {
		t.Fatal("excluded component perturbed")
	}
	// Validation.
	if _, err := (Tolerance{Sigma: -1}).Perturb(g, rng); err == nil {
		t.Fatal("negative sigma accepted")
	}
	if _, err := (Tolerance{Sigma: 0.5}).Perturb(g, rng); err == nil {
		t.Fatal("huge sigma accepted")
	}
	if _, err := tol.Perturb(g, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestToleranceZeroSigmaIsIdentity(t *testing.T) {
	g := golden()
	c, err := (Tolerance{Sigma: 0}).Perturb(g, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"R1", "C1"} {
		before, _ := g.Value(name)
		after, _ := c.Value(name)
		if before != after {
			t.Fatalf("%s changed with sigma 0", name)
		}
	}
}
