package diagnosis

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/circuits"
	"repro/internal/dictionary"
	"repro/internal/fault"
	"repro/internal/trajectory"
)

// doubleFixture builds the paper CUT's double-fault diagnosis stage over
// a 4-frequency test vector (pair families separate far better in R⁴
// than in the paper's R²).
func doubleFixture(t *testing.T) (*dictionary.Dictionary, *fault.Universe, []fault.Multi, *Diagnoser, *Diagnoser) {
	t.Helper()
	cut := circuits.NFLowpass7()
	u, err := fault.PaperUniverse(cut.Passives)
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
	omegas := []float64{0.2, 0.56, 4.55, 12}
	pm, err := trajectory.BuildPairs(nil, d, omegas, pairs)
	if err != nil {
		t.Fatal(err)
	}
	pairDg, err := New(pm)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := trajectory.Build(nil, d, omegas)
	if err != nil {
		t.Fatal(err)
	}
	singleDg, err := New(sm)
	if err != nil {
		t.Fatal(err)
	}
	return d, u, pairs, pairDg, singleDg
}

// TestDoubleFaultTopOneAccuracy is the acceptance pin: a double-fault
// trajectory map diagnoses injected double faults by name, with top-1
// accuracy reported by EvaluateSets.
func TestDoubleFaultTopOneAccuracy(t *testing.T) {
	d, _, pairs, pairDg, _ := doubleFixture(t)
	var trials []fault.Set
	for i := 0; i < len(pairs); i += 7 {
		trials = append(trials, pairs[i])
	}
	ev, err := pairDg.Evaluate(nil, d, trials)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy() < 0.9 {
		t.Fatalf("on-grid double-fault top-1 accuracy %.3f, want >= 0.9 (n=%d)", ev.Accuracy(), ev.Total)
	}
	// Correct trials recover the injected deviations (on-grid: exactly).
	if ev.MeanDevError > 0.02 {
		t.Fatalf("mean deviation error %.3f on on-grid trials", ev.MeanDevError)
	}
}

// TestDoubleFaultCandidateNaming: a named double-fault candidate carries
// the component set, per-part deviation estimates, and a stable Key.
func TestDoubleFaultCandidateNaming(t *testing.T) {
	d, _, _, pairDg, _ := doubleFixture(t)
	inj, err := fault.NewMulti(
		fault.Fault{Component: "R1", Deviation: 0.3},
		fault.Fault{Component: "C2", Deviation: -0.2},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pairDg.DiagnoseSet(d, inj)
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best()
	if !best.IsMulti() {
		t.Fatalf("best candidate %q is not multi", best.Component)
	}
	if best.Key() != SetKey(inj) {
		t.Fatalf("best key %q, want %q (full ranking:\n%s)", best.Key(), SetKey(inj), res)
	}
	if len(best.Components) != 2 || len(best.Deviations) != 2 {
		t.Fatalf("candidate parts: components %v deviations %v", best.Components, best.Deviations)
	}
	for i, comp := range best.Components {
		var want float64
		for _, p := range inj {
			if p.Component == comp {
				want = p.Deviation
			}
		}
		if got := best.Deviations[i]; got < want-0.05 || got > want+0.05 {
			t.Fatalf("part %s estimated %+.2f, injected %+.2f", comp, got, want)
		}
	}
	// Ranked candidates are deduplicated per component-set key.
	seen := make(map[string]bool)
	for _, c := range res.Candidates {
		if seen[c.Key()] {
			t.Fatalf("duplicate key %q in ranking", c.Key())
		}
		seen[c.Key()] = true
	}
}

// TestDoubleFaultRejectionSemantics: against a single-fault map, double
// faults land far from every trajectory and many are rejected; against
// the pair map the same faults are named, not rejected — "rejected" now
// means "not in the modeled universe".
func TestDoubleFaultRejectionSemantics(t *testing.T) {
	d, _, pairs, pairDg, singleDg := doubleFixture(t)
	var trials []fault.Set
	for i := 0; i < len(pairs); i += 7 {
		trials = append(trials, pairs[i])
	}
	const ratio = 0.02
	rejSingle, rejPair := 0, 0
	for _, s := range trials {
		r1, err := singleDg.DiagnoseSet(d, s)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Rejected(singleDg.Extent(), ratio) {
			rejSingle++
		}
		r2, err := pairDg.DiagnoseSet(d, s)
		if err != nil {
			t.Fatal(err)
		}
		if r2.Rejected(pairDg.Extent(), ratio) {
			rejPair++
		}
	}
	if rejPair != 0 {
		t.Fatalf("pair map rejected %d/%d modeled double faults", rejPair, len(trials))
	}
	if rejSingle < len(trials)/4 {
		t.Fatalf("single map rejected only %d/%d double faults; rejection lost its meaning", rejSingle, len(trials))
	}
}

// TestSinglesStillResolveOnPairMap: the pair families do not break
// single-fault naming — hold-out singles stay accurate on the extended
// map, and EvaluateSets agrees with the single-fault keys.
func TestSinglesStillResolveOnPairMap(t *testing.T) {
	d, u, _, pairDg, singleDg := doubleFixture(t)
	var singles []fault.Set
	for _, c := range u.Components {
		for _, dv := range []float64{-0.25, 0.25} {
			singles = append(singles, fault.Fault{Component: c, Deviation: dv})
		}
	}
	evPair, err := pairDg.Evaluate(nil, d, singles)
	if err != nil {
		t.Fatal(err)
	}
	if evPair.TopTwoAccuracy() < 0.9 {
		t.Fatalf("singles on pair map: top-2 %.3f, want >= 0.9", evPair.TopTwoAccuracy())
	}
	evSingle, err := singleDg.Evaluate(nil, d, singles)
	if err != nil {
		t.Fatal(err)
	}
	if evSingle.Accuracy() != 1 {
		t.Fatalf("singles on single map: top-1 %.3f, want 1", evSingle.Accuracy())
	}
}

// TestEvaluateSetsMatchesEvaluateOnSingles: Evaluate's tallies equal a
// direct tally of DiagnoseSets over the same trials — hold-out single
// faults carried onto the set path by fault.Sets, modeled pairs, and
// off-grid pairs, some of which rank the right set second or lower — on
// the single-fault map and on the pair map.
func TestEvaluateSetsMatchesEvaluateOnSingles(t *testing.T) {
	d, u, pairs, pairDg, singleDg := doubleFixture(t)
	trials := fault.Sets(HoldOutTrials(u, []float64{-0.15, 0.25}))
	for i := 0; i < len(pairs); i += 97 {
		trials = append(trials, pairs[i])
	}
	offGrid, err := HoldOutPairTrials(u, []float64{-0.25, 0.25}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(offGrid); i += 5 {
		trials = append(trials, offGrid[i])
	}
	for name, dg := range map[string]*Diagnoser{"single": singleDg, "pair": pairDg} {
		ev, err := dg.Evaluate(nil, d, trials)
		if err != nil {
			t.Fatal(err)
		}
		results, err := dg.DiagnoseSets(nil, d, trials)
		if err != nil {
			t.Fatal(err)
		}
		want := Evaluation{Total: len(trials), Confusion: map[string]map[string]int{}, PerComponent: map[string]*ComponentScore{}}
		var devErrSum float64
		for i, set := range trials {
			actual, cands := SetKey(set), results[i].Candidates
			if want.Confusion[actual] == nil {
				want.Confusion[actual] = map[string]int{}
				want.PerComponent[actual] = &ComponentScore{}
			}
			want.Confusion[actual][cands[0].Key()]++
			want.PerComponent[actual].Total++
			if cands[0].Key() == actual {
				want.Correct++
				want.PerComponent[actual].Correct++
				// Per-part |estimate − truth|, the estimate read from the
				// candidate's aligned Deviations for a pair.
				var sum float64
				for _, p := range set.Parts() {
					est := cands[0].Deviation
					if j := slices.Index(cands[0].Components, p.Component); j >= 0 {
						est = cands[0].Deviations[j]
					}
					sum += math.Abs(est - p.Deviation)
				}
				devErrSum += sum / float64(len(set.Parts()))
			}
			if cands[0].Key() == actual || len(cands) > 1 && cands[1].Key() == actual {
				want.TopTwo++
			}
		}
		if want.Correct > 0 {
			want.MeanDevError = devErrSum / float64(want.Correct)
		}
		if !reflect.DeepEqual(*ev, want) {
			t.Fatalf("%s map: Evaluate %+v, direct tally %+v", name, *ev, want)
		}
	}
}
