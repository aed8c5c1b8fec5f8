package trajectory

import (
	"math"
	"testing"

	"repro/internal/circuits"
	"repro/internal/dictionary"
	"repro/internal/fault"
)

func pairFixture(t *testing.T) (*dictionary.Dictionary, *fault.Universe, []fault.Multi, []float64) {
	t.Helper()
	cut := circuits.NFLowpass7()
	u, err := fault.NewUniverse(cut.Passives[:3], []float64{-0.3, -0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	d, err := dictionary.New(cut.Circuit, cut.Source, cut.Output, u)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := u.Pairs(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d, u, pairs, []float64{0.56, 4.55}
}

func TestBuildPairsStructure(t *testing.T) {
	d, u, pairs, omegas := pairFixture(t)
	m, err := BuildPairs(nil, d, omegas, pairs)
	if err != nil {
		t.Fatal(err)
	}
	// Single trajectories first (universe order), then one family per
	// (pair, frozen deviation): 3 singles + 3 pairs × 3 deviations.
	nc, nd := len(u.Components), len(u.Deviations)
	wantFams := nc * (nc - 1) / 2 * nd
	if got := len(m.Trajectories); got != nc+wantFams {
		t.Fatalf("trajectories = %d, want %d singles + %d families", got, nc, wantFams)
	}
	for i, tr := range m.Trajectories {
		if i < nc {
			if tr.IsMulti() {
				t.Fatalf("trajectory %d (%s) unexpectedly multi", i, tr.Component)
			}
			continue
		}
		if !tr.IsMulti() {
			t.Fatalf("trajectory %d (%s) not multi", i, tr.Component)
		}
		if len(tr.Components) != 2 || len(tr.FixedDeviations) != 1 {
			t.Fatalf("%s: components %v fixed %v", tr.Component, tr.Components, tr.FixedDeviations)
		}
		if tr.Components[0] >= tr.Components[1] {
			t.Fatalf("%s: components not in canonical order", tr.Component)
		}
		// Sweep is sorted, excludes zero, and has one point per modeled
		// deviation.
		if len(tr.Deviations) != nd || len(tr.Points) != nd {
			t.Fatalf("%s: %d sweep points, want %d", tr.Component, len(tr.Deviations), nd)
		}
		for j, dev := range tr.Deviations {
			if dev == 0 {
				t.Fatalf("%s: golden point in a pair sweep", tr.Component)
			}
			if j > 0 && dev <= tr.Deviations[j-1] {
				t.Fatalf("%s: sweep not sorted", tr.Component)
			}
		}
		// Points match the dictionary's own signature of the set.
		set, err := fault.NewMulti(
			fault.Fault{Component: tr.Components[0], Deviation: tr.FixedDeviations[0]},
			fault.Fault{Component: tr.Components[1], Deviation: tr.Deviations[0]},
		)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := d.Signature(set, omegas)
		if err != nil {
			t.Fatal(err)
		}
		for k := range sig {
			if re := math.Abs(sig[k] - tr.Points[0][k]); re > 1e-9*(1+math.Abs(sig[k])) {
				t.Fatalf("%s: point 0 coord %d = %g, dictionary says %g", tr.Component, k, tr.Points[0][k], sig[k])
			}
		}
	}
}

// TestBuildPairsExportRoundTrip: a SnapshotSets export with pair rows
// reconstructs (BuildFromExport) into a map equivalent to the live
// BuildPairs one at grid frequencies.
func TestBuildPairsExportRoundTrip(t *testing.T) {
	d, _, pairs, omegas := pairFixture(t)
	live, err := BuildPairs(nil, d, omegas, pairs)
	if err != nil {
		t.Fatal(err)
	}
	sets := make([]fault.Set, len(pairs))
	for i, p := range pairs {
		sets[i] = p
	}
	// The export grid needs ≥ 2 ascending frequencies; use the test
	// vector itself so loads hit stored values exactly.
	ex, err := d.SnapshotSets(omegas, sets)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ex.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := dictionary.ParseExport(data)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := BuildFromExport(parsed, omegas)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Trajectories) != len(live.Trajectories) {
		t.Fatalf("loaded %d trajectories, live %d", len(loaded.Trajectories), len(live.Trajectories))
	}
	for i, lt := range live.Trajectories {
		rt := loaded.Trajectories[i]
		if rt.Component != lt.Component || rt.IsMulti() != lt.IsMulti() {
			t.Fatalf("trajectory %d: loaded %q multi=%v, live %q multi=%v",
				i, rt.Component, rt.IsMulti(), lt.Component, lt.IsMulti())
		}
		if len(rt.Points) != len(lt.Points) {
			t.Fatalf("%s: loaded %d points, live %d", lt.Component, len(rt.Points), len(lt.Points))
		}
		for j := range lt.Points {
			for k := range lt.Points[j] {
				a, b := rt.Points[j][k], lt.Points[j][k]
				if math.Abs(a-b) > 1e-9*(1+math.Abs(b)) {
					t.Fatalf("%s point %d coord %d: loaded %g, live %g", lt.Component, j, k, a, b)
				}
			}
		}
	}
}

func TestBuildPairsValidation(t *testing.T) {
	d, _, _, omegas := pairFixture(t)
	triple := fault.Multi{
		{Component: "R1", Deviation: 0.1},
		{Component: "R2", Deviation: 0.1},
		{Component: "R3", Deviation: 0.1},
	}
	if _, err := BuildPairs(nil, d, omegas, []fault.Multi{triple}); err == nil {
		t.Fatal("triple fault accepted as a pair")
	}
	// No pairs degrades to the plain single-fault map.
	m, err := BuildPairs(nil, d, omegas, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range m.Trajectories {
		if tr.IsMulti() {
			t.Fatal("multi trajectory in a pair-less map")
		}
	}
}
