// Package fault implements the paper's fault model: single functional
// parametric faults, where a fault is a percentage deviation of one
// component's value ("faults in R & C are represented as % deviations on
// their values"). It also provides the catastrophic open/short extension
// and the systematic fault-universe generation the fault-simulation (FS)
// step requires.
package fault

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/circuit"
	"repro/internal/rerr"
)

// Set is the fault-set abstraction every diagnosis layer speaks: one
// named fault hypothesis — the golden circuit, a single parametric
// Fault, or a simultaneous Multi. IDs are stable (ParseSetID inverts
// them) and Parts resolves the hypothesis to its per-component
// deviations, which the engine maps onto template slots.
type Set interface {
	// ID renders the stable identifier ("golden", "R3@+20%",
	// "C1@-20%+R3@+30%").
	ID() string
	// Parts lists the individual component deviations (empty for golden).
	Parts() []Fault
}

// Sets carries a slice of one concrete hypothesis type (single Faults,
// Multis) onto the fault-set path, element for element.
func Sets[S Set](xs []S) []Set {
	out := make([]Set, len(xs))
	for i, x := range xs {
		out[i] = x
	}
	return out
}

// Fault is a single parametric deviation of one component.
type Fault struct {
	// Component is the element name, e.g. "R3".
	Component string
	// Deviation is the fractional deviation: +0.2 means the component is
	// at 120% of nominal, -0.4 means 60%. Zero denotes the golden
	// circuit.
	Deviation float64
}

// ID renders the paper-style fault identifier, e.g. "R3@+20%": the
// deviation in whole percents as fmt's %+.0f prints it, "golden" at zero.
func (f Fault) ID() string {
	if f.Deviation == 0 {
		return "golden"
	}
	var buf [32]byte
	return string(f.appendID(buf[:0]))
}

// appendID appends f's ID to b. It renders like fmt's %+.0f without fmt:
// half-way percents round to even, a negative value that rounds to zero
// keeps its sign ("-0"), and a "+" goes before anything else unsigned,
// NaN included. strconv.AppendFloat with precision 0 takes its
// multiprecision path on every call, so a whole percent below 2⁵³ —
// math.RoundToEven is exact there and rounds as strconv does — prints
// as an integer; NaN, ±Inf and larger values keep AppendFloat.
func (f Fault) appendID(b []byte) []byte {
	if f.Deviation == 0 {
		return append(b, "golden"...)
	}
	b = append(b, f.Component...)
	b = append(b, '@')
	pct := f.Deviation * 100
	if math.IsNaN(pct) || !math.Signbit(pct) && !math.IsInf(pct, 1) {
		b = append(b, '+')
	}
	switch r := math.RoundToEven(pct); {
	case r == 0 && math.Signbit(r):
		b = append(b, "-0"...)
	case math.Abs(r) < 1<<53:
		b = strconv.AppendInt(b, int64(r), 10)
	default:
		b = strconv.AppendFloat(b, pct, 'f', 0, 64)
	}
	return append(b, '%')
}

// Scale returns the multiplicative factor applied to the nominal value.
func (f Fault) Scale() float64 { return 1 + f.Deviation }

// IsGolden reports whether the fault denotes the nominal circuit.
func (f Fault) IsGolden() bool { return f.Deviation == 0 }

// Parts implements Set: a golden fault has no parts, a genuine fault is
// its own single part.
func (f Fault) Parts() []Fault {
	if f.IsGolden() {
		return nil
	}
	return []Fault{f}
}

// ParseID parses an identifier produced by ID (or "golden"): the whole
// text between the last "@" and the single trailing "%" must be a finite
// number. Because ID renders whole percents, a deviation that rendering
// cannot carry back is rejected too — one that is nonzero but shows as
// 0 % (the golden circuit), or so large that the rendering drifts — so
// the ID of every accepted fault parses back to the same ID. The range
// of the value (a deviation of −100 % or below) is the caller's check.
func ParseID(id string) (Fault, error) {
	f, err := parseID(id)
	if err != nil {
		return Fault{}, err
	}
	if canon := f.ID(); canon != "golden" {
		if g, err := parseID(canon); err != nil || g.ID() != canon {
			return Fault{}, fmt.Errorf("fault: deviation in %q does not survive its whole-percent id %q", id, canon)
		}
	}
	return f, nil
}

// parseID is ParseID's syntax: NAME@<finite float>%.
func parseID(id string) (Fault, error) {
	if id == "golden" {
		return Fault{}, nil
	}
	at := strings.LastIndex(id, "@")
	if at <= 0 || !strings.HasSuffix(id, "%") {
		return Fault{}, fmt.Errorf("fault: malformed id %q (want NAME@±NN%%)", id)
	}
	pct, err := strconv.ParseFloat(id[at+1:len(id)-1], 64)
	if err != nil {
		return Fault{}, fmt.Errorf("fault: malformed deviation in %q: %v", id, err)
	}
	if math.IsNaN(pct) || math.IsInf(pct, 0) {
		return Fault{}, fmt.Errorf("fault: non-finite deviation in %q", id)
	}
	return Fault{Component: id[:at], Deviation: pct / 100}, nil
}

// Apply injects the fault into a clone of the golden circuit and returns
// the faulty circuit. The golden circuit is never modified.
func (f Fault) Apply(golden *circuit.Circuit) (*circuit.Circuit, error) {
	if f.IsGolden() {
		return golden.Clone(), nil
	}
	if f.Scale() <= 0 {
		return nil, fmt.Errorf("fault: %s: deviation %+.0f%% makes the value nonpositive", f.Component, f.Deviation*100)
	}
	c := golden.Clone()
	if err := c.ScaleValue(f.Component, f.Scale()); err != nil {
		return nil, fmt.Errorf("fault: %s: %w", f.ID(), err)
	}
	return c, nil
}

// Universe is an ordered set of single faults over a circuit's
// components — the fault dictionary's index set.
type Universe struct {
	// Components lists the fault targets in order.
	Components []string
	// Deviations lists the fractional deviations applied to every
	// component (zero excluded), sorted ascending.
	Deviations []float64
}

// PaperDeviations returns the deviation grid of the paper's application
// example: 60%–140% of nominal in 10% steps, i.e. ±10%, ±20%, ±30%, ±40%,
// zero excluded.
func PaperDeviations() []float64 {
	return []float64{-0.4, -0.3, -0.2, -0.1, 0.1, 0.2, 0.3, 0.4}
}

// NewUniverse builds a fault universe over the given components and
// deviation grid. Deviations are deduplicated, sorted, and must not
// include 0 (the golden point is handled separately) or anything at or
// below -100%. Rejections wrap rerr.ErrBadConfig.
func NewUniverse(components []string, deviations []float64) (*Universe, error) {
	if len(components) == 0 {
		return nil, fmt.Errorf("fault: %w: universe needs at least one component", rerr.ErrBadConfig)
	}
	seenC := make(map[string]bool)
	for _, c := range components {
		if c == "" {
			return nil, fmt.Errorf("fault: %w: empty component name", rerr.ErrBadConfig)
		}
		if seenC[c] {
			return nil, fmt.Errorf("fault: %w: duplicate component %q", rerr.ErrBadConfig, c)
		}
		seenC[c] = true
	}
	if len(deviations) == 0 {
		return nil, fmt.Errorf("fault: %w: universe needs at least one deviation", rerr.ErrBadConfig)
	}
	seenD := make(map[float64]bool)
	var devs []float64
	for _, d := range deviations {
		if d == 0 {
			return nil, fmt.Errorf("fault: %w: deviation 0 is the golden circuit, not a fault", rerr.ErrBadConfig)
		}
		if d <= -1 {
			return nil, fmt.Errorf("fault: %w: deviation %g zeroes or negates the component", rerr.ErrBadConfig, d)
		}
		if math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, fmt.Errorf("fault: %w: non-finite deviation", rerr.ErrBadConfig)
		}
		if !seenD[d] {
			seenD[d] = true
			devs = append(devs, d)
		}
	}
	sort.Float64s(devs)
	return &Universe{Components: append([]string(nil), components...), Deviations: devs}, nil
}

// PaperUniverse builds the paper's universe over the given components:
// every component deviated in 10% steps across 60%–140%.
func PaperUniverse(components []string) (*Universe, error) {
	return NewUniverse(components, PaperDeviations())
}

// Faults enumerates every single fault, grouped by component in
// component order, each group sorted by deviation.
func (u *Universe) Faults() []Fault {
	out := make([]Fault, 0, len(u.Components)*len(u.Deviations))
	for _, c := range u.Components {
		for _, d := range u.Deviations {
			out = append(out, Fault{Component: c, Deviation: d})
		}
	}
	return out
}

// Size returns the number of single faults in the universe.
func (u *Universe) Size() int { return len(u.Components) * len(u.Deviations) }

// ComponentFaults returns the faults of one component sorted by
// deviation.
func (u *Universe) ComponentFaults(component string) ([]Fault, error) {
	for _, c := range u.Components {
		if c == component {
			out := make([]Fault, len(u.Deviations))
			for i, d := range u.Deviations {
				out[i] = Fault{Component: c, Deviation: d}
			}
			return out, nil
		}
	}
	return nil, fmt.Errorf("fault: %w: component %q not in universe", rerr.ErrUnknownComponent, component)
}

// NegativeBranch returns the component's faults with negative deviation
// ordered from most deviated toward nominal; PositiveBranch the positive
// ones from nominal outward. Together with the golden origin they form
// the two arms of a fault trajectory.
func (u *Universe) NegativeBranch(component string) ([]Fault, error) {
	fs, err := u.ComponentFaults(component)
	if err != nil {
		return nil, err
	}
	var out []Fault
	for _, f := range fs {
		if f.Deviation < 0 {
			out = append(out, f)
		}
	}
	return out, nil
}

// PositiveBranch returns the component's positive-deviation faults in
// increasing order.
func (u *Universe) PositiveBranch(component string) ([]Fault, error) {
	fs, err := u.ComponentFaults(component)
	if err != nil {
		return nil, err
	}
	var out []Fault
	for _, f := range fs {
		if f.Deviation > 0 {
			out = append(out, f)
		}
	}
	return out, nil
}

// Validate checks that every fault in the universe is injectable into the
// circuit (components exist, are Valued, and deviations keep values
// positive).
func (u *Universe) Validate(golden *circuit.Circuit) error {
	for _, c := range u.Components {
		if _, err := golden.Value(c); err != nil {
			return fmt.Errorf("fault: universe: %w: %v", rerr.ErrUnknownComponent, err)
		}
	}
	for _, d := range u.Deviations {
		if 1+d <= 0 {
			return fmt.Errorf("fault: deviation %g is not injectable", d)
		}
	}
	return nil
}

// Catastrophic faults model hard failures as extreme parametric scalings,
// the standard simulation practice when a true topology change (open or
// short) would need circuit rewiring.
const (
	// OpenScale multiplies a resistance to approximate an open circuit
	// (or divides a capacitance).
	OpenScale = 1e9
	// ShortScale approximates a short.
	ShortScale = 1e-9
)

// Catastrophic describes a hard fault on one component.
type Catastrophic struct {
	Component string
	// Open true → open circuit; false → short circuit.
	Open bool
}

// ID returns e.g. "R3#open".
func (c Catastrophic) ID() string {
	if c.Open {
		return c.Component + "#open"
	}
	return c.Component + "#short"
}

// Apply injects the catastrophic fault into a clone of golden. For
// resistors an open multiplies R; for capacitors an open divides C
// (capacitive admittance sC → 0); vice versa for shorts.
func (c Catastrophic) Apply(golden *circuit.Circuit) (*circuit.Circuit, error) {
	cc := golden.Clone()
	e, ok := cc.Element(c.Component)
	if !ok {
		return nil, fmt.Errorf("fault: no element %q", c.Component)
	}
	scale := OpenScale
	if !c.Open {
		scale = ShortScale
	}
	switch e.(type) {
	case *circuit.Capacitor:
		// A huge capacitor is a short; a tiny one is an open.
		scale = 1 / scale
	case *circuit.Inductor:
		// A huge inductance is an open at AC; tiny is a short.
	default:
	}
	if err := cc.ScaleValue(c.Component, scale); err != nil {
		return nil, fmt.Errorf("fault: %s: %w", c.ID(), err)
	}
	return cc, nil
}
