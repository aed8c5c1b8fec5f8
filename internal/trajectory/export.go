package trajectory

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/dictionary"
	"repro/internal/fault"
	"repro/internal/geometry"
)

// BuildFromExport reconstructs a trajectory map from a serialized
// dictionary snapshot alone — no circuit, no simulator. This is the
// deployment scenario: the test program ships the JSON grid and the
// tester interpolates it at the chosen test frequencies.
//
// Responses are interpolated linearly in log ω between grid points; the
// requested frequencies must lie inside the grid's range.
func BuildFromExport(ex *dictionary.Export, omegas []float64) (*Map, error) {
	if ex == nil || len(ex.Entries) == 0 {
		return nil, fmt.Errorf("trajectory: empty export")
	}
	if len(omegas) == 0 {
		return nil, fmt.Errorf("trajectory: empty test vector")
	}
	if len(ex.Omegas) < 2 {
		return nil, fmt.Errorf("trajectory: export grid needs at least 2 frequencies")
	}
	for i := 1; i < len(ex.Omegas); i++ {
		if ex.Omegas[i] <= ex.Omegas[i-1] {
			return nil, fmt.Errorf("trajectory: export grid not strictly ascending at %d", i)
		}
	}
	lo, hi := ex.Omegas[0], ex.Omegas[len(ex.Omegas)-1]
	for _, w := range omegas {
		if w < lo || w > hi {
			return nil, fmt.Errorf("trajectory: test frequency %g outside export grid [%g, %g]", w, lo, hi)
		}
	}

	// Index entries: golden, per-component single-fault rows, and pair
	// rows destined for the shared family grouping (buildPairFamilies),
	// so a SnapshotSets export with a double-fault universe round-trips
	// into a map equivalent to the live BuildPairs one.
	var goldenMags []float64
	type row struct {
		dev  float64
		mags []float64
	}
	byComp := make(map[string][]row)
	var compOrder []string
	type pairMags struct {
		frozen fault.Fault
		swept  string
		dev    float64
		mags   []float64
	}
	var pairEntries []pairMags
	for _, ent := range ex.Entries {
		if ent.ID == "golden" {
			goldenMags = ent.Mags
			continue
		}
		set, err := fault.ParseSetID(ent.ID)
		if err != nil {
			return nil, fmt.Errorf("trajectory: export entry %q: %w", ent.ID, err)
		}
		parts := set.Parts()
		switch len(parts) {
		case 1:
			f := parts[0]
			if _, seen := byComp[f.Component]; !seen {
				compOrder = append(compOrder, f.Component)
			}
			byComp[f.Component] = append(byComp[f.Component], row{dev: f.Deviation, mags: ent.Mags})
		case 2:
			pairEntries = append(pairEntries, pairMags{
				frozen: parts[0], swept: parts[1].Component, dev: parts[1].Deviation, mags: ent.Mags,
			})
		default:
			return nil, fmt.Errorf("trajectory: export entry %q has %d parts; only single and double faults reconstruct", ent.ID, len(parts))
		}
	}
	if goldenMags == nil {
		return nil, fmt.Errorf("trajectory: export has no golden entry")
	}

	m := &Map{Omegas: append([]float64(nil), omegas...)}
	for _, comp := range compOrder {
		rows := byComp[comp]
		sort.Slice(rows, func(i, j int) bool { return rows[i].dev < rows[j].dev })
		tr := &Trajectory{Component: comp}
		origin := make(geometry.VecN, len(omegas))
		inserted := false
		appendPoint := func(dev float64, pt geometry.VecN) {
			tr.Deviations = append(tr.Deviations, dev)
			tr.Points = append(tr.Points, pt)
		}
		for _, r := range rows {
			if !inserted && r.dev > 0 {
				appendPoint(0, origin)
				inserted = true
			}
			pt := make(geometry.VecN, len(omegas))
			for k, w := range omegas {
				pt[k] = interpAt(ex.Omegas, r.mags, w) - interpAt(ex.Omegas, goldenMags, w)
			}
			appendPoint(r.dev, pt)
		}
		if !inserted {
			appendPoint(0, origin)
		}
		m.Trajectories = append(m.Trajectories, tr)
	}
	pairRows := make([]pairRow, len(pairEntries))
	for i, pe := range pairEntries {
		pt := make(geometry.VecN, len(omegas))
		for ki, w := range omegas {
			pt[ki] = interpAt(ex.Omegas, pe.mags, w) - interpAt(ex.Omegas, goldenMags, w)
		}
		pairRows[i] = pairRow{frozen: pe.frozen, swept: pe.swept, dev: pe.dev, pt: pt}
	}
	m.Trajectories = append(m.Trajectories, buildPairFamilies(pairRows)...)
	return m, nil
}

// interpAt interpolates mags over the ascending grid linearly in log ω.
// The caller guarantees w lies inside [grid[0], grid[len-1]].
func interpAt(grid, mags []float64, w float64) float64 {
	i := sort.SearchFloat64s(grid, w)
	if i == 0 {
		return mags[0]
	}
	if i >= len(grid) {
		return mags[len(mags)-1]
	}
	if grid[i] == w {
		// Exact grid hit: return the stored value bit-for-bit instead of
		// reconstructing it through a+(b-a), which can be off by an ulp —
		// loaded artifacts must reproduce in-process results exactly at
		// grid frequencies.
		return mags[i]
	}
	w0, w1 := grid[i-1], grid[i]
	t := (math.Log(w) - math.Log(w0)) / (math.Log(w1) - math.Log(w0))
	return mags[i-1] + t*(mags[i]-mags[i-1])
}
