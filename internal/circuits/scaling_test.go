package circuits

import (
	"strings"
	"testing"
)

// TestScalingValidates assembles every scaling-tier CUT and checks its
// measurement metadata, like the All() validation test does for the
// fixed set.
func TestScalingValidates(t *testing.T) {
	seen := map[string]bool{}
	for _, cut := range Scaling() {
		name := cut.Circuit.Name()
		if seen[name] {
			t.Errorf("duplicate scaling CUT %q", name)
		}
		seen[name] = true
		if err := cut.Validate(); err != nil {
			t.Errorf("CUT %s: %v", name, err)
		}
		if cut.Description == "" || cut.Omega0 <= 0 {
			t.Errorf("CUT %s: incomplete metadata", name)
		}
	}
}

// TestScalingReachesHundredsOfUnknowns pins the point of the tier: the
// largest registered members must assemble systems with hundreds of MNA
// unknowns.
func TestScalingReachesHundredsOfUnknowns(t *testing.T) {
	for _, tc := range []struct {
		name string
		min  int
	}{
		{"rc-ladder-256", 256},
		{"opamp-cascade-32", 150},
		{"rc-grid-32", 1025},
	} {
		cut, err := ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := cut.Circuit.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		if sys.Size() < tc.min {
			t.Errorf("%s: %d unknowns, want >= %d", tc.name, sys.Size(), tc.min)
		}
	}
}

// TestByNameParameterized covers the family-name resolution paths.
func TestByNameParameterized(t *testing.T) {
	cut, err := ByName("rc-ladder-128")
	if err != nil {
		t.Fatal(err)
	}
	if got := cut.Circuit.Name(); got != "rc-ladder-128" {
		t.Errorf("name = %q", got)
	}
	if len(cut.Passives) != 256 {
		t.Errorf("rc-ladder-128 has %d passives, want 256", len(cut.Passives))
	}

	cut, err = ByName("opamp-cascade-8")
	if err != nil {
		t.Fatal(err)
	}
	if len(cut.Passives) != 40 {
		t.Errorf("opamp-cascade-8 has %d passives, want 40", len(cut.Passives))
	}
	// Stage elements carry the instance prefix from the subckt expansion.
	if _, ok := cut.Circuit.Element("X3.C1"); !ok {
		t.Error("opamp-cascade-8 missing expanded element X3.C1")
	}

	// Fixed names keep working through the same entry point.
	if _, err := ByName("rc-ladder-3"); err != nil {
		t.Errorf("fixed rc-ladder-3: %v", err)
	}

	// A family prefix with a bad size reports the constructor's error;
	// non-family junk reports the not-found error listing the families.
	if _, err := ByName("rc-ladder-0"); err == nil || !strings.Contains(err.Error(), "n >= 1") {
		t.Errorf("rc-ladder-0: %v", err)
	}
	if _, err := ByName("no-such-cut"); err == nil || !strings.Contains(err.Error(), "rc-ladder-<n>") {
		t.Errorf("unknown name should list families, got: %v", err)
	}
	if _, err := ByName("rc-ladder-xyz"); err == nil {
		t.Error("non-numeric suffix must not resolve")
	}
}

// TestByNameSizeCap pins the family size cap at both sides of the
// boundary: the largest size of each family whose MNA system fits in
// MaxUnknowns builds with exactly the predicted unknown count, and the
// next size is refused before anything is constructed.
func TestByNameSizeCap(t *testing.T) {
	for _, tc := range []struct {
		fits, over string
		unknowns   int
	}{
		{"rc-ladder-4095", "rc-ladder-4096", 4095 + 2},
		{"opamp-cascade-682", "opamp-cascade-683", 6*682 + 2},
		{"rc-grid-64", "rc-grid-65", 64*64 + 1},
	} {
		cut, err := ByName(tc.fits)
		if err != nil {
			t.Fatalf("%s: %v", tc.fits, err)
		}
		sys, err := cut.Circuit.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		if sys.Size() != tc.unknowns || sys.Size() > MaxUnknowns {
			t.Errorf("%s: %d unknowns, want %d (cap %d)", tc.fits, sys.Size(), tc.unknowns, MaxUnknowns)
		}
		if _, err := ByName(tc.over); err == nil || !strings.Contains(err.Error(), "cap") {
			t.Errorf("%s: err = %v, want the size-cap error", tc.over, err)
		}
	}
	if _, err := ByName("rc-grid-100000"); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("rc-grid-100000: err = %v, want the size-cap error", err)
	}
}

// TestOpampCascadeBehavesLowpass sanity-checks the cascade's response
// shape indirectly through its metadata: the golden circuit must
// assemble and every stage's five filter passives must be Valued fault
// targets.
func TestOpampCascadeBehavesLowpass(t *testing.T) {
	cut, err := OpampCascade(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := cut.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cut.Passives) != 20 {
		t.Fatalf("4-stage cascade has %d fault targets, want 20", len(cut.Passives))
	}
	if _, err := OpampCascade(0); err == nil {
		t.Error("OpampCascade(0) must fail")
	}
}

// TestRCGridStructure pins the mesh family's contract: k²+1 unknowns, a
// fault universe bounded at 24 targets regardless of grid size, and
// every target an element on the source→output diagonal staircase.
func TestRCGridStructure(t *testing.T) {
	for _, tc := range []struct {
		k, unknowns, targets int
	}{
		{4, 17, 9},
		{16, 257, 24},
		{45, 2026, 24},
	} {
		cut, err := RCGrid(tc.k)
		if err != nil {
			t.Fatal(err)
		}
		if err := cut.Validate(); err != nil {
			t.Fatalf("rc-grid-%d: %v", tc.k, err)
		}
		sys, err := cut.Circuit.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		if sys.Size() != tc.unknowns {
			t.Errorf("rc-grid-%d: %d unknowns, want %d", tc.k, sys.Size(), tc.unknowns)
		}
		if len(cut.Passives) != tc.targets {
			t.Errorf("rc-grid-%d: %d fault targets, want %d", tc.k, len(cut.Passives), tc.targets)
		}
		for _, p := range cut.Passives {
			if _, ok := cut.Circuit.Element(p); !ok {
				t.Errorf("rc-grid-%d: fault target %s not in circuit", tc.k, p)
			}
		}
	}
	if _, err := RCGrid(1); err == nil {
		t.Error("RCGrid(1) must fail")
	}
	if _, err := ByName("rc-grid-8"); err != nil {
		t.Errorf("ByName rc-grid-8: %v", err)
	}
}
