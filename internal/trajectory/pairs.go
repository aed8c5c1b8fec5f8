package trajectory

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dictionary"
	"repro/internal/fault"
	"repro/internal/geometry"
)

// BuildPairs constructs the trajectory map for the given test vector
// extended with a double-fault universe: the single-fault trajectories
// of the dictionary's universe (exactly as Build produces them) plus one
// sweep line per (pair, frozen first deviation) family — for the pair
// (A, B) and each modeled deviation dA, the polyline of
// {A@dA, B@dB} signatures over the modeled dB values. A diagnoser built
// over such a map names double faults instead of rejecting them.
//
// All pair signatures are computed in one batched rank-k engine call, so
// the map costs O(len(omegas)) golden factorizations regardless of how
// many pairs are modeled. Pairs are grouped in first-seen order; within
// a family points are sorted by the swept deviation. Families with a
// single sampled point cannot form a segment and are skipped (model at
// least two deviations per component to avoid this).
//
// Cancellation semantics match Build. The returned map carries no
// intersection cache, like Build's.
func BuildPairs(ctx context.Context, d *dictionary.Dictionary, omegas []float64, pairs []fault.Multi) (*Map, error) {
	m, err := Build(ctx, d, omegas)
	if err != nil {
		return nil, err
	}
	if len(pairs) == 0 {
		return m, nil
	}
	sets := make([]fault.Set, len(pairs))
	for i, p := range pairs {
		if len(p) != 2 {
			return nil, fmt.Errorf("trajectory: fault set %s has %d parts, want 2", p.ID(), len(p))
		}
		sets[i] = p
	}
	sigs, err := d.SignaturesSets(ctx, sets, omegas)
	if err != nil {
		return nil, err
	}
	rows := make([]pairRow, len(pairs))
	for i, p := range pairs {
		rows[i] = pairRow{
			frozen: p[0], swept: p[1].Component, dev: p[1].Deviation,
			pt: append(geometry.VecN(nil), sigs[i]...),
		}
	}
	m.Trajectories = append(m.Trajectories, buildPairFamilies(rows)...)
	return m, nil
}

// pairRow is one sampled double-fault point headed into family
// grouping: the frozen first part, the swept second component at dev,
// and the signature point. Parts come pre-split in canonical Multi
// order (frozen component < swept component).
type pairRow struct {
	frozen fault.Fault
	swept  string
	dev    float64
	pt     geometry.VecN
}

// buildPairFamilies groups pair rows into sweep-line trajectories — one
// per (frozen part, swept component) family, in first-seen order,
// points sorted by the swept deviation. This single grouping is shared
// by the live BuildPairs path and the export-reconstruction path
// (BuildFromExport), so the two always agree on family labels, order,
// and the <2-point skip. Families with a single sampled point cannot
// form a projection segment and are dropped.
func buildPairFamilies(rows []pairRow) []*Trajectory {
	type famKey struct {
		a, b string
		da   float64
	}
	fams := make(map[famKey][]pairRow)
	var order []famKey
	for _, r := range rows {
		k := famKey{a: r.frozen.Component, b: r.swept, da: r.frozen.Deviation}
		if _, seen := fams[k]; !seen {
			order = append(order, k)
		}
		fams[k] = append(fams[k], r)
	}
	var out []*Trajectory
	for _, k := range order {
		pts := fams[k]
		if len(pts) < 2 {
			continue // a single point cannot form a projection segment
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].dev < pts[j].dev })
		tr := &Trajectory{
			Component:       fmt.Sprintf("%s+%s", fault.Fault{Component: k.a, Deviation: k.da}.ID(), k.b),
			Components:      []string{k.a, k.b},
			FixedDeviations: []float64{k.da},
		}
		for _, fp := range pts {
			tr.Deviations = append(tr.Deviations, fp.dev)
			tr.Points = append(tr.Points, fp.pt)
		}
		out = append(out, tr)
	}
	return out
}
