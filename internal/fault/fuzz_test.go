package fault

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/circuits"
)

// FuzzParseSetID: ParseSetID never panics, and the ID of every set it
// accepts parses back to a set with the same ID. The corpus is seeded
// with every built-in CUT's paper-universe IDs and a sample of its pairs.
func FuzzParseSetID(f *testing.F) {
	f.Add("golden")
	for _, cut := range circuits.All() {
		u, err := PaperUniverse(cut.Passives)
		if err != nil {
			f.Fatal(err)
		}
		for _, flt := range u.Faults() {
			f.Add(flt.ID())
		}
		pairs, err := u.Pairs(nil, 0)
		if err != nil {
			continue // a single-component CUT has no pairs
		}
		for i := 0; i < len(pairs); i += 17 {
			f.Add(pairs[i].ID())
		}
	}
	f.Fuzz(func(t *testing.T, id string) {
		s, err := ParseSetID(id)
		if err != nil {
			return
		}
		canon := s.ID()
		again, err := ParseSetID(canon)
		if err != nil {
			t.Fatalf("ParseSetID(%q) accepted, but its ID %q does not parse: %v", id, canon, err)
		}
		if again.ID() != canon {
			t.Fatalf("ParseSetID(%q): ID %q re-parses to %q", id, canon, again.ID())
		}
	})
}

// fmtID is the identifier as fmt renders it: the oracle Fault.ID and
// Multi.ID must match byte for byte.
func fmtID(f Fault) string {
	if f.Deviation == 0 {
		return "golden"
	}
	return fmt.Sprintf("%s@%+.0f%%", f.Component, f.Deviation*100)
}

// FuzzFaultID: for any component name and any deviation's float64 bits,
// Fault.ID renders what fmt's %+.0f does (half-way percents round to
// even, NaN gets a "+", a deviation that rounds to zero keeps its sign),
// and a two-part Multi.ID joins its parts' IDs with "+".
func FuzzFaultID(f *testing.F) {
	// Beyond the paper's grid: half-way percents (±0.5 %, ±1.5 %,
	// ±2.5 %), a percent at 2⁵³ and the one below it (the edge of the
	// integer rendering), percents of 1e17 and 1e19, and the values
	// strconv renders unsigned or as words.
	p53 := float64(1<<53) / 100 // p53*100 is exactly 2⁵³
	devs := append(PaperDeviations(), 0.004, -0.004, 0.005, -0.005, 0.125,
		0.015, -0.015, 0.025, -0.025,
		p53, -p53, math.Nextafter(p53, 0), 1e15, -1e15, 1e17,
		math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1))
	for i, d := range devs {
		f.Add("R3", math.Float64bits(d), math.Float64bits(devs[(i+1)%len(devs)]))
	}
	f.Fuzz(func(t *testing.T, comp string, a, b uint64) {
		x := Fault{Component: comp, Deviation: math.Float64frombits(a)}
		if got, want := x.ID(), fmtID(x); got != want {
			t.Fatalf("Fault%+v.ID() = %q, fmt renders %q", x, got, want)
		}
		y := Fault{Component: "C1", Deviation: math.Float64frombits(b)}
		if got, want := (Multi{x, y}).ID(), fmtID(x)+"+"+fmtID(y); got != want {
			t.Fatalf("Multi{%+v, %+v}.ID() = %q, want %q", x, y, got, want)
		}
	})
}
