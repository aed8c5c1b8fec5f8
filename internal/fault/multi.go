package fault

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/circuit"
)

// Multi is a simultaneous multiple parametric fault — the case the
// paper's single-fault assumption excludes. When the modeled universe
// includes multi-fault trajectories (see Universe.Pairs and the
// trajectory package), the diagnosis stage names these like any other
// fault; points outside the modeled universe are still rejected via
// diagnosis.Result.Rejected.
type Multi []Fault

// NewMulti builds a multiple fault after validating that components are
// distinct and every part is a genuine, injectable deviation — the same
// construction-time validation single faults get from universe
// generation, so an invalid multi fails here rather than at apply or
// solve time.
func NewMulti(parts ...Fault) (Multi, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("fault: empty multiple fault")
	}
	for i, p := range parts {
		if p.IsGolden() {
			return nil, fmt.Errorf("fault: multiple fault includes a zero deviation on %q", p.Component)
		}
		if p.Scale() <= 0 {
			return nil, fmt.Errorf("fault: %s: deviation %+.0f%% makes the value nonpositive", p.Component, p.Deviation*100)
		}
		for _, q := range parts[:i] {
			if q.Component == p.Component {
				return nil, fmt.Errorf("fault: component %q faulted twice", p.Component)
			}
		}
	}
	m := make(Multi, len(parts))
	copy(m, parts)
	slices.SortFunc(m, func(a, b Fault) int { return strings.Compare(a.Component, b.Component) })
	return m, nil
}

// ID renders e.g. "C1@-20%+R3@+30%": the parts' IDs joined by "+".
func (m Multi) ID() string {
	var buf [64]byte
	b := buf[:0]
	for i, f := range m {
		if i > 0 {
			b = append(b, '+')
		}
		b = f.appendID(b)
	}
	return string(b)
}

// Parts implements Set.
func (m Multi) Parts() []Fault { return m }

// Apply injects every part into one clone of the golden circuit.
// Nonpositive scales cannot occur on a NewMulti-built value (rejected at
// construction); the check remains for hand-assembled literals.
func (m Multi) Apply(golden *circuit.Circuit) (*circuit.Circuit, error) {
	if len(m) == 0 {
		return nil, fmt.Errorf("fault: empty multiple fault")
	}
	c := golden.Clone()
	for _, f := range m {
		if f.Scale() <= 0 {
			return nil, fmt.Errorf("fault: %s: nonpositive scale", f.ID())
		}
		if err := c.ScaleValue(f.Component, f.Scale()); err != nil {
			return nil, fmt.Errorf("fault: %s: %w", m.ID(), err)
		}
	}
	return c, nil
}

// ParseSetID parses an identifier produced by Fault.ID or Multi.ID
// (or "golden") back into the corresponding fault set — the inverse the
// dictionary export and the serving wire format round-trip through.
// Multi-part IDs are split at every "+" that follows a "%" terminator,
// so deviation signs ("R3@+20%") never act as separators. Parts follow
// ParseID's rules, and a multi-part ID is also rejected when its own
// whole-percent ID would not parse back: a part at −99.6 % renders as
// −100 %, which NewMulti refuses.
func ParseSetID(id string) (Set, error) {
	s, err := parseSetID(id)
	if err != nil {
		return nil, err
	}
	if m, ok := s.(Multi); ok {
		canon := m.ID()
		if again, err := parseSetID(canon); err != nil || again.ID() != canon {
			return nil, fmt.Errorf("fault: %q does not survive its whole-percent id %q", id, canon)
		}
	}
	return s, nil
}

// parseSetID is ParseSetID without the multi-part round-trip check.
func parseSetID(id string) (Set, error) {
	if id == "golden" {
		return Fault{}, nil
	}
	var parts []Fault
	start := 0
	for i := 1; i < len(id); i++ {
		if id[i] == '+' && id[i-1] == '%' {
			f, err := ParseID(id[start:i])
			if err != nil {
				return nil, err
			}
			parts = append(parts, f)
			start = i + 1
		}
	}
	f, err := ParseID(id[start:])
	if err != nil {
		return nil, err
	}
	parts = append(parts, f)
	if len(parts) == 1 {
		return parts[0], nil
	}
	return NewMulti(parts...)
}

// Pairs enumerates the systematic double-fault universe: every unordered
// component pair in universe order, each part swept over the given
// deviation grid (nil → the universe's own grid). The sweep order is
// canonical — pair (A, B) with A before B in component order, A's
// deviation outermost, B's innermost — which is what groups the result
// into the per-(A, B, devA) polylines the trajectory layer builds.
// max > 0 caps the number of generated multis (a prefix of the
// systematic order), bounding dictionary and trajectory cost on large
// universes; max <= 0 means no cap.
func (u *Universe) Pairs(deviations []float64, max int) ([]Multi, error) {
	if len(u.Components) < 2 {
		return nil, fmt.Errorf("fault: double-fault universe needs at least 2 components, have %d", len(u.Components))
	}
	devs := deviations
	if devs == nil {
		devs = u.Deviations
	}
	if len(devs) == 0 {
		return nil, fmt.Errorf("fault: double-fault universe needs at least one deviation")
	}
	total := len(u.Components) * (len(u.Components) - 1) / 2 * len(devs) * len(devs)
	if max > 0 && max < total {
		total = max
	}
	out := make([]Multi, 0, total)
	for i := 0; i < len(u.Components); i++ {
		for j := i + 1; j < len(u.Components); j++ {
			for _, da := range devs {
				for _, db := range devs {
					m, err := NewMulti(
						Fault{Component: u.Components[i], Deviation: da},
						Fault{Component: u.Components[j], Deviation: db},
					)
					if err != nil {
						return nil, err
					}
					if max > 0 && len(out) >= max {
						return out, nil
					}
					out = append(out, m)
				}
			}
		}
	}
	return out, nil
}

// RandomMulti draws a random n-component multiple fault over the
// universe's components, each part's deviation drawn uniformly from the
// universe's deviation set.
func RandomMulti(u *Universe, n int, rng *rand.Rand) (Multi, error) {
	if n < 2 || n > len(u.Components) {
		return nil, fmt.Errorf("fault: multiple fault of %d parts over %d components", n, len(u.Components))
	}
	if rng == nil {
		return nil, fmt.Errorf("fault: nil rng")
	}
	perm := rng.Perm(len(u.Components))
	parts := make([]Fault, n)
	for i := 0; i < n; i++ {
		parts[i] = Fault{
			Component: u.Components[perm[i]],
			Deviation: u.Deviations[rng.Intn(len(u.Deviations))],
		}
	}
	return NewMulti(parts...)
}

// Tolerance models manufacturing spread: every Valued component of the
// circuit is independently perturbed by a Gaussian factor
// (1 + N(0, sigma)), truncated at ±3σ so values stay positive for any
// reasonable sigma. This is the background against which a diagnosis
// must still work (experiment E11).
type Tolerance struct {
	// Sigma is the relative standard deviation, e.g. 0.01 for 1%.
	Sigma float64
}

// Perturb returns a clone of the circuit with every Valued component
// (optionally excluding the given names) perturbed.
func (t Tolerance) Perturb(golden *circuit.Circuit, rng *rand.Rand, exclude ...string) (*circuit.Circuit, error) {
	if t.Sigma < 0 || t.Sigma > 0.3 {
		return nil, fmt.Errorf("fault: tolerance sigma %g outside [0, 0.3]", t.Sigma)
	}
	if rng == nil {
		return nil, fmt.Errorf("fault: nil rng")
	}
	skip := make(map[string]bool, len(exclude))
	for _, n := range exclude {
		skip[n] = true
	}
	c := golden.Clone()
	for _, name := range c.ValuedNames() {
		if skip[name] {
			continue
		}
		g := rng.NormFloat64()
		if g > 3 {
			g = 3
		}
		if g < -3 {
			g = -3
		}
		if err := c.ScaleValue(name, 1+t.Sigma*g); err != nil {
			return nil, fmt.Errorf("fault: tolerance on %s: %w", name, err)
		}
	}
	return c, nil
}
