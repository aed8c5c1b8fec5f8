package netlist_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/netlist"
)

// elementKey flattens an element to a comparable description: name,
// nodes, and scalar value when present.
func elementKey(t *testing.T, e circuit.Element) [3]interface{} {
	t.Helper()
	nodes := ""
	for _, n := range e.Nodes() {
		nodes += n + "|"
	}
	var value float64
	if v, ok := e.(circuit.Valued); ok {
		value = v.Value()
	}
	return [3]interface{}{e.Name(), nodes, value}
}

// TestRoundTripBuiltinCUTs serializes every built-in benchmark circuit,
// re-parses it, and checks the result is an equivalent circuit: same
// name, same elements (names, nodes, values) in the same order, and a
// fixed point under a second serialize.
func TestRoundTripBuiltinCUTs(t *testing.T) {
	for _, cut := range circuits.All() {
		orig := cut.Circuit
		text, err := netlist.Serialize(orig)
		if err != nil {
			t.Fatalf("%s: serialize: %v", orig.Name(), err)
		}
		back, err := netlist.Parse(text)
		if err != nil {
			t.Fatalf("%s: re-parse: %v\n%s", orig.Name(), err, text)
		}
		if back.Name() != orig.Name() {
			t.Fatalf("name round trip: %q → %q", orig.Name(), back.Name())
		}
		oe, be := orig.Elements(), back.Elements()
		if len(oe) != len(be) {
			t.Fatalf("%s: element count %d → %d", orig.Name(), len(oe), len(be))
		}
		for i := range oe {
			if ok, bk := elementKey(t, oe[i]), elementKey(t, be[i]); ok != bk {
				t.Fatalf("%s: element %d round trip: %v → %v", orig.Name(), i, ok, bk)
			}
		}
		// The re-parsed circuit must still assemble (round trip preserves
		// structural validity).
		if _, err := back.Assemble(); err != nil {
			t.Fatalf("%s: re-parsed circuit does not assemble: %v", orig.Name(), err)
		}
		// Serialization is a fixed point: a second round trip is textually
		// identical.
		text2, err := netlist.Serialize(back)
		if err != nil {
			t.Fatalf("%s: second serialize: %v", orig.Name(), err)
		}
		if text2 != text {
			t.Fatalf("%s: serialize not a fixed point:\n--- first\n%s--- second\n%s", orig.Name(), text, text2)
		}
	}
}

// numbers lists every number an element carries, for bit comparison.
func numbers(e circuit.Element) []float64 {
	switch el := e.(type) {
	case circuit.Valued:
		return []float64{el.Value()}
	case *circuit.VSource:
		return []float64{real(el.Amplitude), imag(el.Amplitude), el.Mag, el.PhaseDeg}
	case *circuit.ISource:
		return []float64{real(el.Amplitude), imag(el.Amplitude), el.Mag, el.PhaseDeg}
	case *circuit.VCVS:
		return []float64{el.Gain}
	case *circuit.VCCS:
		return []float64{el.Gm}
	case *circuit.CCVS:
		return []float64{el.R}
	case *circuit.CCCS:
		return []float64{el.Gain}
	}
	return nil
}

// checkRoundTrip serializes c, parses the text back and serializes again:
// the re-parsed circuit must have the same element names, kinds, nodes
// and bit-identical numbers, and the second text must equal the first.
func checkRoundTrip(t *testing.T, c *circuit.Circuit) {
	t.Helper()
	text, err := netlist.Serialize(c)
	if err != nil {
		t.Fatalf("serialize: %v", err)
	}
	back, err := netlist.Parse(text)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	oe, be := c.Elements(), back.Elements()
	if back.Name() != c.Name() || len(oe) != len(be) {
		t.Fatalf("%q with %d elements came back as %q with %d\n%s", c.Name(), len(oe), back.Name(), len(be), text)
	}
	for i := range oe {
		o, b := oe[i], be[i]
		if o.Name() != b.Name() || fmt.Sprintf("%T", o) != fmt.Sprintf("%T", b) || !slices.Equal(o.Nodes(), b.Nodes()) {
			t.Fatalf("element %d: %s %T %v came back as %s %T %v", i, o.Name(), o, o.Nodes(), b.Name(), b, b.Nodes())
		}
		on, bn := numbers(o), numbers(b)
		for k := range on {
			if math.Float64bits(on[k]) != math.Float64bits(bn[k]) {
				t.Fatalf("%s: number %d is %v, re-parsed %v\n%s", o.Name(), k, on[k], bn[k], text)
			}
		}
	}
	text2, err := netlist.Serialize(back)
	if err != nil {
		t.Fatalf("second serialize: %v", err)
	}
	if text2 != text {
		t.Fatalf("serialize is not a fixed point:\n--- first\n%s--- second\n%s", text, text2)
	}
}

// TestRoundTripExactNumbers: values that an engineering suffix cannot
// carry exactly, and sources with a magnitude and phase, come back
// bit-identical, and parse → serialize → parse → serialize is a fixed
// point. 2.6593614787523845e+08 once serialized as 265.9361478752385meg
// (re-read as 2.6593614787523848e+08), and a source card "11 1"
// serialized through polar form as 11.000000000000002 and
// 0.9999999999999999, drifting on every cycle.
func TestRoundTripExactNumbers(t *testing.T) {
	for _, in := range []string{
		"t\nV1 in 0 1\nR1 in 0 2.6593614787523845e+08\n",
		"t\nV1 in 0 11 1\nR1 in 0 1k\n",
		"0\n i0 00 0 11 1",
		"t\nV1 in 0 -2\nI1 in 0 3 -0\nR1 in 0 -0\nC1 in 0 1e-320\nE1 a 0 in 0 0.1\nRa a 0 1\n",
	} {
		c, err := netlist.Parse(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		checkRoundTrip(t, c)
	}
}

// FuzzNetlistRoundTrip: every netlist Parse accepts that has no
// subcircuit instance round-trips exactly (checkRoundTrip). Elements
// named with a '.' come from subcircuit expansion, whose names do not
// parse back as their kind, so such inputs are skipped.
func FuzzNetlistRoundTrip(f *testing.F) {
	for _, cut := range circuits.All() {
		text, err := netlist.Serialize(cut.Circuit)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(text)
	}
	for _, s := range []string{
		rcNetlist, allKindsNetlist,
		"V1 in 0 1\nR1 in 0 1k\n",
		"t\nE1 out 0\n+ in 0\n+ 5\nR1 out 0 1\nV1 in 0 1\nRi in 0 1meg\n",
		"t\nV1 in 0 2 90\nR1 in 0 1\n",
		"t\nR1 a 0 1\nV1 a 0 1\n.end\nR2 b 0 1\n",
		"t\nV1 in 0 11 1\nR1 in 0 2.6593614787523845e+08\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		c, err := netlist.Parse(in)
		if err != nil {
			return
		}
		for _, e := range c.Elements() {
			if strings.Contains(e.Name(), ".") {
				return
			}
		}
		checkRoundTrip(t, c)
	})
}
