// Package trajectory implements the paper's central construct: the
// component parametric fault trajectory. Sampling every faulty circuit's
// magnitude response at the k test frequencies maps each fault to a point
// in R^k (golden response at the origin); connecting one component's
// points in deviation order yields that component's trajectory. The
// number of pairwise trajectory intersections I is the GA's fitness
// input (fitness = 1/(1+I)), and the trajectories themselves are the
// reference map the diagnosis stage projects unknown faults onto.
package trajectory

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/dictionary"
	"repro/internal/geometry"
	"repro/internal/rerr"
)

// Trajectory is one fault family's trajectory in R^k. For the paper's
// single faults it is the polyline of signature points ordered from the
// most negative deviation, through the golden origin, to the most
// positive deviation. For a multi-fault family (Components non-nil) it
// is one sweep line of the family's sampled manifold: every part but the
// last is frozen at its FixedDeviations value and the last part swept
// over Deviations — these lines do not pass through the origin, since
// the frozen parts stay faulted along the whole sweep. The JSON tags
// define the persisted artifact schema (see the artifact envelope);
// the multi-fault fields are omitted empty, so single-fault artifacts
// are unchanged.
type Trajectory struct {
	// Component is the circuit element this trajectory belongs to; for a
	// multi-fault family it is the family label, e.g. "C1@-20%+R3" (the
	// frozen part IDs plus the swept component).
	Component string `json:"component"`
	// Components lists every faulted part of a multi-fault family in
	// canonical (sorted) order, the swept component last. Nil for the
	// classic single-fault trajectory.
	Components []string `json:"components,omitempty"`
	// FixedDeviations holds the frozen deviations of Components[:len-1],
	// aligned with them. Nil for single-fault trajectories.
	FixedDeviations []float64 `json:"fixed_deviations,omitempty"`
	// Deviations holds the fractional deviation of each point (the swept
	// part's, for multi-fault families), aligned with Points; the golden
	// origin appears as deviation 0 on single-fault trajectories.
	Deviations []float64 `json:"deviations"`
	// Points holds the signature points, aligned with Deviations.
	Points geometry.PolylineN `json:"points"`
}

// IsMulti reports whether the trajectory belongs to a multi-fault
// family.
func (t *Trajectory) IsMulti() bool { return len(t.Components) > 0 }

// Dim returns the test-vector dimension k.
func (t *Trajectory) Dim() int { return t.Points.Dim() }

// DeviationAt linearly interpolates the deviation corresponding to the
// point at segment index i, local parameter tloc (clamped to [0,1]) —
// how the diagnosis stage turns a projection foot into a deviation
// estimate.
func (t *Trajectory) DeviationAt(i int, tloc float64) float64 {
	if len(t.Deviations) < 2 {
		if len(t.Deviations) == 1 {
			return t.Deviations[0]
		}
		return 0
	}
	if i < 0 {
		i = 0
	}
	if i > len(t.Deviations)-2 {
		i = len(t.Deviations) - 2
	}
	tloc = math.Max(0, math.Min(1, tloc))
	return t.Deviations[i] + tloc*(t.Deviations[i+1]-t.Deviations[i])
}

// Map is the full set of component trajectories for one test vector.
type Map struct {
	// Omegas is the test vector (angular frequencies) the map was built
	// with.
	Omegas []float64 `json:"omegas"`
	// Trajectories holds one entry per component, in universe order.
	Trajectories []*Trajectory `json:"trajectories"`

	// cache holds the precomputed intersection state (origin tolerance,
	// planar projections, segment boxes) for Builder-produced maps; nil
	// for hand-assembled or unmarshaled maps, which compute it per
	// Intersections call.
	cache *intersectCache
}

// Build constructs the trajectory map for the given test vector from a
// fault dictionary. Each component's trajectory runs from its most
// negative deviation through the origin (golden) to its most positive.
//
// The whole universe is evaluated in one batched engine call — per test
// frequency the golden system is factored once and every fault solved by
// a rank-1 update — so building a map costs O(k) factorizations instead
// of O(k · universe size). This is the GA's per-candidate cost.
//
// The context is threaded into the batched solve; a canceled context
// returns an error wrapping rerr.ErrCanceled within one frequency. A nil
// context is treated as context.Background().
//
// Build dedicates a fresh Builder per call, so the returned map is
// independent; hot loops that rebuild maps repeatedly (the GA fitness
// path) hold a Builder instead and reuse its storage. Unlike
// Builder.Build it does not attach a precomputed intersection cache:
// one-shot maps usually count intersections at most once, and cache-less
// maps stay reflect.DeepEqual across an artifact save/load round-trip.
func Build(ctx context.Context, d *dictionary.Dictionary, omegas []float64) (*Map, error) {
	return NewBuilder(d).build(ctx, omegas)
}

// ByComponent returns the trajectory of a named component; a miss wraps
// rerr.ErrUnknownComponent.
func (m *Map) ByComponent(comp string) (*Trajectory, error) {
	for _, t := range m.Trajectories {
		if t.Component == comp {
			return t, nil
		}
	}
	return nil, fmt.Errorf("trajectory: %w: no trajectory for component %q", rerr.ErrUnknownComponent, comp)
}

// Dim returns the test-vector dimension.
func (m *Map) Dim() int { return len(m.Omegas) }

// Validate checks the structural invariants a freshly unmarshaled or
// hand-built map must satisfy before points are projected onto it:
// distinct finite positive frequencies, at least one trajectory, and on
// every trajectory at least two points (one segment), one deviation per
// point, len(Omegas) finite coordinates per point and, for a multi-fault
// family, one fixed deviation per frozen part. Errors wrap
// rerr.ErrArtifact.
func (m *Map) Validate() error {
	if len(m.Omegas) == 0 {
		return fmt.Errorf("%w: trajectory: map has no frequencies", rerr.ErrArtifact)
	}
	for i, w := range m.Omegas {
		if !(w > 0) || math.IsInf(w, 0) {
			return fmt.Errorf("%w: trajectory: frequency %g is not finite and positive", rerr.ErrArtifact, w)
		}
		if slices.Contains(m.Omegas[:i], w) {
			return fmt.Errorf("%w: trajectory: frequency %g repeats an earlier one", rerr.ErrArtifact, w)
		}
	}
	if len(m.Trajectories) == 0 {
		return fmt.Errorf("%w: trajectory: map has no trajectories", rerr.ErrArtifact)
	}
	for ti, t := range m.Trajectories {
		if t == nil {
			return fmt.Errorf("%w: trajectory: entry %d is null", rerr.ErrArtifact, ti)
		}
		if len(t.Points) < 2 || len(t.Deviations) != len(t.Points) {
			return fmt.Errorf("%w: trajectory: %s has %d points and %d deviations, want at least 2 of each, aligned",
				rerr.ErrArtifact, t.Component, len(t.Points), len(t.Deviations))
		}
		for pi, p := range t.Points {
			if len(p) != len(m.Omegas) {
				return fmt.Errorf("%w: trajectory: %s point %d has %d coordinates, want %d",
					rerr.ErrArtifact, t.Component, pi, len(p), len(m.Omegas))
			}
			for _, x := range p {
				if math.IsNaN(x) || math.IsInf(x, 0) {
					return fmt.Errorf("%w: trajectory: %s point %d has coordinate %g", rerr.ErrArtifact, t.Component, pi, x)
				}
			}
		}
		if t.IsMulti() && len(t.FixedDeviations) != len(t.Components)-1 {
			return fmt.Errorf("%w: trajectory: %s has %d fixed deviations for %d components, want %d",
				rerr.ErrArtifact, t.Component, len(t.FixedDeviations), len(t.Components), len(t.Components)-1)
		}
	}
	return nil
}

// originTolerance derives the tolerance for excluding origin-touching
// intersections: a small fraction of the largest trajectory extent, so
// it scales with the map.
func (m *Map) originTolerance() float64 {
	var maxNorm float64
	for _, t := range m.Trajectories {
		for _, p := range t.Points {
			if n := geometry.NormN(p); n > maxNorm {
				maxNorm = n
			}
		}
	}
	if maxNorm == 0 {
		return geometry.Eps
	}
	return 1e-6 * maxNorm
}

// Intersections counts the paper's I: the number of intersection points
// between distinct component trajectories, excluding the structural
// meeting at the shared golden origin. For k = 2 this is the planar
// count; for other k the count is taken over every coordinate-plane
// projection.
//
// Builder-produced maps count off a precomputed cache (tolerance,
// projections, segment bounding boxes) and allocate nothing; other maps
// compute the same cache on the fly. Counts are identical either way.
// The count runs geometry.SharedOriginIntersectionsBoxed, so it equals
// the sum of PairIntersections over all pairs only for finite point
// coordinates, and then up to the rounding exception documented there.
func (m *Map) Intersections() int {
	if m.cache != nil {
		return m.cache.count(m)
	}
	var c intersectCache
	c.build(m)
	return c.count(m)
}

// PairIntersections counts off-origin intersections between the named
// pair of components. It runs the unboxed
// geometry.SharedOriginIntersections, so its counts sum to Intersections
// only for finite point coordinates, and then up to the rounding
// exception documented at geometry.SharedOriginIntersectionsBoxed.
func (m *Map) PairIntersections(a, b string) (int, error) {
	ta, err := m.ByComponent(a)
	if err != nil {
		return 0, err
	}
	tb, err := m.ByComponent(b)
	if err != nil {
		return 0, err
	}
	return pairIntersections(ta, tb, m.Dim(), m.originTolerance()), nil
}

func pairIntersections(a, b *Trajectory, dim int, tol float64) int {
	if dim == 2 {
		pa := a.Points.Project2D(0, 1)
		pb := b.Points.Project2D(0, 1)
		return geometry.SharedOriginIntersections(pa, pb, geometry.Point{}, tol)
	}
	// k != 2: sum the planar counts over coordinate-plane projections,
	// excluding each plane's origin.
	total := 0
	for i := 0; i < dim; i++ {
		for j := i + 1; j < dim; j++ {
			pa := a.Points.Project2D(i, j)
			pb := b.Points.Project2D(i, j)
			total += geometry.SharedOriginIntersections(pa, pb, geometry.Point{}, tol)
		}
	}
	if dim == 1 {
		// Intervals on a line: overlap length beyond tol counts as one.
		pa := project1(a)
		pb := project1(b)
		if overlap1(pa, pb) > tol {
			total++
		}
	}
	return total
}

func project1(t *Trajectory) [2]float64 {
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, p := range t.Points {
		mn = math.Min(mn, p[0])
		mx = math.Max(mx, p[0])
	}
	return [2]float64{mn, mx}
}

func overlap1(a, b [2]float64) float64 {
	lo := math.Max(a[0], b[0])
	hi := math.Min(a[1], b[1])
	return hi - lo
}

// MinSeparation returns the smallest distance between any two distinct
// trajectories measured away from the origin: for each vertex of one
// trajectory at least minDevNorm from the origin, the distance to the
// other trajectory. It quantifies how confusable the best-separated map
// still is (larger is better).
func (m *Map) MinSeparation() float64 {
	best := math.Inf(1)
	tol := m.originTolerance()
	for i := 0; i < len(m.Trajectories); i++ {
		for j := 0; j < len(m.Trajectories); j++ {
			if i == j {
				continue
			}
			a, b := m.Trajectories[i], m.Trajectories[j]
			for _, p := range a.Points {
				if geometry.NormN(p) <= tol {
					continue // the shared origin is structurally close
				}
				if d := b.Points.DistToN(p); d < best {
					best = d
				}
			}
		}
	}
	return best
}

// OverlapScore sums, over all trajectory pairs, the approximate length of
// shared pathway (portions within tol of each other) — the "common
// pathways" the paper's fitness criterion also penalizes. 2D only.
func (m *Map) OverlapScore(tol float64, samplesPerSegment int) (float64, error) {
	if m.Dim() != 2 {
		return 0, fmt.Errorf("trajectory: overlap score requires k=2, have k=%d", m.Dim())
	}
	var total float64
	for i := 0; i < len(m.Trajectories); i++ {
		for j := i + 1; j < len(m.Trajectories); j++ {
			pa := m.Trajectories[i].Points.Project2D(0, 1)
			pb := m.Trajectories[j].Points.Project2D(0, 1)
			total += geometry.OverlapLength(pa, pb, tol, samplesPerSegment)
		}
	}
	return total, nil
}

// Extent returns the maximum distance of any trajectory point from the
// origin — the overall scale of the map, used to normalize distances.
func (m *Map) Extent() float64 {
	var mx float64
	for _, t := range m.Trajectories {
		for _, p := range t.Points {
			if n := geometry.NormN(p); n > mx {
				mx = n
			}
		}
	}
	return mx
}

// Describe renders a table of trajectory points for reporting (Figure 3
// style): component, deviation, coordinates.
func (m *Map) Describe() string {
	out := fmt.Sprintf("trajectory map at ω = %v (I = %d)\n", m.Omegas, m.Intersections())
	comps := make([]string, 0, len(m.Trajectories))
	for _, t := range m.Trajectories {
		comps = append(comps, t.Component)
	}
	sort.Strings(comps)
	for _, c := range comps {
		t, _ := m.ByComponent(c)
		out += fmt.Sprintf("  %s:", c)
		for i, p := range t.Points {
			out += fmt.Sprintf(" [%+.0f%%](", t.Deviations[i]*100)
			for k, v := range p {
				if k > 0 {
					out += ","
				}
				out += fmt.Sprintf("%.4g", v)
			}
			out += ")"
		}
		out += "\n"
	}
	return out
}
