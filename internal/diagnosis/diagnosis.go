// Package diagnosis implements the paper's classification step: given an
// observed response point in the test-vector plane, drop perpendiculars
// from every known fault-trajectory segment and name the component whose
// trajectory is closest — preferring segments for which the
// perpendicular foot actually exists, exactly as the paper's Figure 3
// procedure prescribes. Interpolating the foot's position along the
// trajectory also estimates the deviation magnitude.
package diagnosis

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"repro/internal/dictionary"
	"repro/internal/fault"
	"repro/internal/geometry"
	"repro/internal/trajectory"
)

// Candidate is one fault hypothesis' claim on an observed fault point:
// a single component, or — when the map models multi-fault families — a
// named set of simultaneously faulted components. The JSON tags define
// the machine-readable report schema (ftdiag -json); the multi-fault
// fields are omitted empty, so single-fault reports are unchanged.
type Candidate struct {
	// Component is the candidate faulty component; for a multi-fault
	// candidate it is the family label (e.g. "C1@-20%+R3").
	Component string `json:"component"`
	// Components lists every faulted part of a multi-fault candidate in
	// canonical order (nil ⇒ a single fault on Component).
	Components []string `json:"components,omitempty"`
	// Distance is the point's distance to the trajectory (to the
	// perpendicular foot when one exists, else to the nearest endpoint).
	Distance float64 `json:"distance"`
	// Deviation is the estimated fractional deviation at the projection
	// foot (the swept part's, for a multi-fault candidate).
	Deviation float64 `json:"deviation"`
	// Deviations holds the per-part deviation estimates of a multi-fault
	// candidate, aligned with Components. Frozen parts carry their
	// family's modeled deviation (grid resolution); the swept part is
	// interpolated like a single-fault estimate.
	Deviations []float64 `json:"deviations,omitempty"`
	// Perpendicular reports whether a perpendicular foot exists inside
	// some segment of the trajectory (the paper's preferred evidence).
	Perpendicular bool `json:"perpendicular"`
}

// IsMulti reports whether the candidate names a multiple fault.
func (c Candidate) IsMulti() bool { return len(c.Components) > 0 }

// Key is the candidate's component-set identity: the faulted components
// joined with "+" ("R3", "C1+R3"), independent of deviation estimates.
// Candidates from different sweep families of one pair share a Key, and
// Diagnose keeps only the best per Key, so comparing Key against
// SetKey of an injected fault decides correctness.
func (c Candidate) Key() string {
	if !c.IsMulti() {
		return c.Component
	}
	return strings.Join(c.Components, "+")
}

// SetKey is the component-set identity of a fault set, matching
// Candidate.Key ("golden" for the empty set). Multi parts are already
// canonically sorted; single faults are their component.
func SetKey(set fault.Set) string {
	parts := set.Parts()
	if len(parts) == 0 {
		return "golden"
	}
	comps := make([]string, len(parts))
	for i, p := range parts {
		comps[i] = p.Component
	}
	sort.Strings(comps)
	return strings.Join(comps, "+")
}

// Result is a ranked diagnosis.
type Result struct {
	// Candidates is sorted best-first.
	Candidates []Candidate `json:"candidates"`
	// Point is the observed signature the diagnosis explains.
	Point geometry.VecN `json:"point"`
}

// Best returns the top candidate.
func (r *Result) Best() Candidate {
	if len(r.Candidates) == 0 {
		return Candidate{}
	}
	return r.Candidates[0]
}

// AmbiguitySet returns every candidate whose distance is within ratio of
// the best candidate's distance (ratio >= 1). With a degenerate zero
// best distance, only exact ties are included.
func (r *Result) AmbiguitySet(ratio float64) []Candidate {
	if len(r.Candidates) == 0 {
		return nil
	}
	best := r.Candidates[0].Distance
	var out []Candidate
	for _, c := range r.Candidates {
		if best == 0 {
			if c.Distance == 0 {
				out = append(out, c)
			}
			continue
		}
		if c.Distance <= best*ratio {
			out = append(out, c)
		}
	}
	return out
}

// String renders the ranking.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "diagnosis of point %v:\n", []float64(r.Point))
	for i, c := range r.Candidates {
		perp := " "
		if c.Perpendicular {
			perp = "⊥"
		}
		fmt.Fprintf(&b, "  %d. %-8s dist=%.5g dev=%+.1f%% %s\n", i+1, c.Component, c.Distance, c.Deviation*100, perp)
	}
	return b.String()
}

// Rejected reports whether the diagnosis should be distrusted: the
// observed point is farther from every modeled fault trajectory than
// ratio × the map's extent. What lands here depends on what the map
// models: against a single-fault map, multiple simultaneous faults are
// rejected; against a map with double-fault families (trajectory
// BuildPairs, Session WithDoubleFaults), doubles are named like any
// other fault and rejection means "not in the modeled universe" —
// triples, gross measurement errors, fault classes outside the
// dictionary. Either way it is the honest alternative to confidently
// naming the wrong fault. A ratio around 0.02–0.05 works well in
// practice (see experiment E10).
func (r *Result) Rejected(extent, ratio float64) bool {
	if len(r.Candidates) == 0 {
		return true
	}
	if extent <= 0 || ratio <= 0 {
		return false
	}
	return r.Candidates[0].Distance > ratio*extent
}

// Diagnoser classifies observed signature points against a trajectory
// map.
type Diagnoser struct {
	m *trajectory.Map
}

// Extent returns the trajectory map's scale (max point distance from the
// origin), the natural normalizer for rejection thresholds.
func (d *Diagnoser) Extent() float64 { return d.m.Extent() }

// New builds a diagnoser over a trajectory map.
func New(m *trajectory.Map) (*Diagnoser, error) {
	if m == nil {
		return nil, fmt.Errorf("diagnosis: nil trajectory map")
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("diagnosis: %w", err)
	}
	return &Diagnoser{m: m}, nil
}

// Map returns the underlying trajectory map.
func (d *Diagnoser) Map() *trajectory.Map { return d.m }

// Diagnose ranks components for an observed signature point. The point's
// dimension must match the map's test vector.
func (d *Diagnoser) Diagnose(point geometry.VecN) (*Result, error) {
	if len(point) != d.m.Dim() {
		return nil, fmt.Errorf("diagnosis: point dimension %d, map dimension %d", len(point), d.m.Dim())
	}
	res := &Result{
		Candidates: make([]Candidate, 0, len(d.m.Trajectories)),
		Point:      append(geometry.VecN(nil), point...),
	}
	for _, tr := range d.m.Trajectories {
		pts := tr.Points
		if len(pts) < 2 {
			continue
		}
		// One pass over the segments finds the nearest projection and the
		// nearest interior one, whose perpendicular foot exists: the
		// paper prefers the latter.
		var near, in geometry.ProjectionN
		nearSeg, inSeg := 0, -1
		in.Dist = math.Inf(1)
		for i := 0; i+1 < len(pts); i++ {
			pr := geometry.ProjectN(point, pts[i], pts[i+1])
			if i == 0 || pr.Dist < near.Dist {
				near, nearSeg = pr, i
			}
			if pr.Interior && pr.Dist < in.Dist {
				in, inSeg = pr, i
			}
		}
		cand := Candidate{Component: tr.Component}
		if inSeg >= 0 {
			cand.Distance = in.Dist
			cand.Deviation = tr.DeviationAt(inSeg, in.T)
			cand.Perpendicular = true
		} else {
			cand.Distance = near.Dist
			cand.Deviation = tr.DeviationAt(nearSeg, near.T)
		}
		if tr.IsMulti() {
			cand.Components = append([]string(nil), tr.Components...)
			cand.Deviations = append(append([]float64(nil), tr.FixedDeviations...), cand.Deviation)
		}
		res.Candidates = append(res.Candidates, cand)
	}
	slices.SortStableFunc(res.Candidates, func(a, b Candidate) int {
		// Perpendicular evidence wins when distances are comparable
		// (within 1%); otherwise plain distance decides.
		if a.Perpendicular != b.Perpendicular && math.Abs(a.Distance-b.Distance) <= 0.01*math.Max(a.Distance, b.Distance) {
			if a.Perpendicular {
				return -1
			}
			return 1
		}
		switch {
		case a.Distance < b.Distance:
			return -1
		case a.Distance > b.Distance:
			return 1
		}
		return 0
	})
	// A pair's sweep families all claim the same component set; keep only
	// the best-ranked claim per Key so the ranking reads as distinct
	// hypotheses. Single-fault maps have unique keys, so this is a no-op
	// there.
	seen := make(map[string]bool, len(res.Candidates))
	kept := res.Candidates[:0]
	for _, c := range res.Candidates {
		if k := c.Key(); !seen[k] {
			seen[k] = true
			kept = append(kept, c)
		}
	}
	res.Candidates = kept
	return res, nil
}

// DiagnoseSet computes the fault set's signature (golden, single or
// multiple fault) from the dictionary at the map's test vector and
// diagnoses it — the closed-loop "simulate an unknown fault, then find
// it" experiment.
func (d *Diagnoser) DiagnoseSet(dict *dictionary.Dictionary, set fault.Set) (*Result, error) {
	sig, err := dict.Signature(set, d.m.Omegas)
	if err != nil {
		return nil, err
	}
	return d.Diagnose(geometry.VecN(sig))
}

// DiagnoseSets computes the signatures of every given fault set (single
// and multiple faults freely mixed) in one batched rank-k solve at the
// map's test vector and diagnoses each, returning results aligned with
// the input. It is the bulk shared-read entry point: the signature solve
// writes only call-local scratch and stores nothing in the dictionary,
// and the projection pass only reads the map, so any number of
// goroutines may call it on one Diagnoser/Dictionary pair concurrently.
// Per-set results are computed independently, so a batched call is
// bit-identical to the same sets diagnosed one at a time.
func (d *Diagnoser) DiagnoseSets(ctx context.Context, dict *dictionary.Dictionary, sets []fault.Set) ([]*Result, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("diagnosis: no faults")
	}
	sigs, err := dict.SignaturesSets(ctx, sets, d.m.Omegas)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(sets))
	for i := range sets {
		res, err := d.Diagnose(geometry.VecN(sigs[i]))
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// Evaluation aggregates diagnosis quality over a set of trial faults.
type Evaluation struct {
	// Total is the number of trials.
	Total int `json:"total"`
	// Correct counts trials whose top candidate named the right
	// component set.
	Correct int `json:"correct"`
	// TopTwo counts trials where the right component set ranked first or
	// second.
	TopTwo int `json:"top_two"`
	// MeanDevError is the average |estimated − true| deviation among the
	// correctly named trials.
	MeanDevError float64 `json:"mean_dev_error"`
	// Confusion[actual][predicted] counts outcomes by component-set key.
	Confusion map[string]map[string]int `json:"confusion"`
	// PerComponent maps component-set key → correct/total for it.
	PerComponent map[string]*ComponentScore `json:"per_component"`
}

// ComponentScore is a per-component tally.
type ComponentScore struct {
	Total   int `json:"total"`
	Correct int `json:"correct"`
}

// Accuracy returns Correct/Total (0 for an empty evaluation).
func (e *Evaluation) Accuracy() float64 {
	if e.Total == 0 {
		return 0
	}
	return float64(e.Correct) / float64(e.Total)
}

// TopTwoAccuracy returns TopTwo/Total.
func (e *Evaluation) TopTwoAccuracy() float64 {
	if e.Total == 0 {
		return 0
	}
	return float64(e.TopTwo) / float64(e.Total)
}

// Evaluate runs the diagnoser over every trial fault set, computing all
// trial signatures from the dictionary in one batched rank-k solve.
// Trials may sit off the dictionary's deviation grid (the realistic
// case); single faults enter through fault.Sets. A trial counts as
// correct when the top candidate's Key names exactly the trial's faulted
// component set (SetKey); Confusion and PerComponent are keyed by those
// set keys ("R3", "C1+R3"). MeanDevError averages the per-part
// |estimated − true| deviation over the correctly named trials. A
// canceled context stops the batched solve within one frequency; the
// error wraps rerr.ErrCanceled.
func (d *Diagnoser) Evaluate(ctx context.Context, dict *dictionary.Dictionary, trials []fault.Set) (*Evaluation, error) {
	results, err := d.DiagnoseSets(ctx, dict, trials)
	if err != nil {
		return nil, err
	}
	ev := &Evaluation{
		Confusion:    make(map[string]map[string]int),
		PerComponent: make(map[string]*ComponentScore),
	}
	var devErrSum float64
	for ti, set := range trials {
		res := results[ti]
		best := res.Best()
		want := SetKey(set)
		ev.Total++
		if ev.Confusion[want] == nil {
			ev.Confusion[want] = make(map[string]int)
		}
		ev.Confusion[want][best.Key()]++
		cs := ev.PerComponent[want]
		if cs == nil {
			cs = &ComponentScore{}
			ev.PerComponent[want] = cs
		}
		cs.Total++
		if best.Key() == want {
			ev.Correct++
			cs.Correct++
			devErrSum += setDevError(set, best)
		}
		for i, c := range res.Candidates {
			if i > 1 {
				break
			}
			if c.Key() == want {
				ev.TopTwo++
				break
			}
		}
	}
	if ev.Correct > 0 {
		ev.MeanDevError = devErrSum / float64(ev.Correct)
	}
	return ev, nil
}

// setDevError averages |estimated − true| deviation across the parts of
// a correctly named trial. The candidate's Key matched the trial's, so
// both sides name the same components; estimates are matched to true
// parts by component.
func setDevError(set fault.Set, c Candidate) float64 {
	parts := set.Parts()
	if len(parts) == 0 {
		return 0
	}
	est := func(comp string) float64 {
		for i, cc := range c.Components {
			if cc == comp {
				return c.Deviations[i]
			}
		}
		return c.Deviation // single-fault candidate
	}
	var sum float64
	for _, p := range parts {
		sum += math.Abs(est(p.Component) - p.Deviation)
	}
	return sum / float64(len(parts))
}

// ConfusionTable renders the confusion matrix with components sorted.
func (e *Evaluation) ConfusionTable() string {
	comps := make([]string, 0, len(e.Confusion))
	for c := range e.Confusion {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	// Collect predicted labels too (may include components never the
	// actual fault).
	predSet := make(map[string]bool)
	for _, row := range e.Confusion {
		for p := range row {
			predSet[p] = true
		}
	}
	preds := make([]string, 0, len(predSet))
	for p := range predSet {
		preds = append(preds, p)
	}
	sort.Strings(preds)

	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "actual\\pred")
	for _, p := range preds {
		fmt.Fprintf(&b, "%8s", p)
	}
	b.WriteByte('\n')
	for _, c := range comps {
		fmt.Fprintf(&b, "%-10s", c)
		for _, p := range preds {
			fmt.Fprintf(&b, "%8d", e.Confusion[c][p])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// HoldOutTrials builds the standard trial set: every component of the
// universe at deviations that fall between the dictionary's grid points
// (e.g. ±15%, ±25%, ±35% for the paper grid), exercising interpolation
// rather than memorization.
func HoldOutTrials(u *fault.Universe, deviations []float64) []fault.Fault {
	var out []fault.Fault
	for _, c := range u.Components {
		for _, d := range deviations {
			if d == 0 {
				continue
			}
			out = append(out, fault.Fault{Component: c, Deviation: d})
		}
	}
	return out
}

// DefaultHoldOutDeviations returns off-grid deviations between the
// paper's ±10..40% grid points.
func DefaultHoldOutDeviations() []float64 {
	return []float64{-0.35, -0.25, -0.15, 0.15, 0.25, 0.35}
}

// HoldOutPairTrials builds the double-fault analogue of HoldOutTrials:
// every component pair of the universe swept over the given deviations
// (nil → DefaultHoldOutDeviations, exercising interpolation off the
// modeled pair grid), capped at max sets (≤ 0 → no cap).
func HoldOutPairTrials(u *fault.Universe, deviations []float64, max int) ([]fault.Set, error) {
	if deviations == nil {
		deviations = DefaultHoldOutDeviations()
	}
	pairs, err := u.Pairs(deviations, max)
	if err != nil {
		return nil, err
	}
	return fault.Sets(pairs), nil
}
