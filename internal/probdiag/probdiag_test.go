package probdiag

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/circuits"
	"repro/internal/diagnosis"
	"repro/internal/dictionary"
	"repro/internal/fault"
	"repro/internal/trajectory"
)

func buildDict(t *testing.T, cut circuits.CUT) *dictionary.Dictionary {
	t.Helper()
	u, err := fault.PaperUniverse(cut.Passives)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dictionary.New(cut.Circuit, cut.Source, cut.Output, u)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// The acceptance pin: a fixed seed must produce bit-identical clouds
// at Workers ∈ {1, 4, NumCPU}.
func TestBuildWorkerCountDeterminism(t *testing.T) {
	cut := circuits.NFLowpass7()
	d := buildDict(t, cut)
	omegas := []float64{0.5, 2}
	var ref *CloudSet
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		cs, err := Build(context.Background(), d, omegas, nil, Config{
			Sigma: 0.05, Samples: 40, Seed: 7, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = cs
			continue
		}
		if !reflect.DeepEqual(ref, cs) {
			t.Fatalf("workers=%d: cloud set differs from workers=1 build", workers)
		}
	}
}

// σ = 0 degenerates each cloud to the dictionary's point signature
// with zero variance — the bridge between the probabilistic and the
// classic path.
func TestZeroSigmaCloudsMatchPointSignatures(t *testing.T) {
	cut := circuits.SallenKeyLP()
	d := buildDict(t, cut)
	omegas := []float64{0.5, 1, 2}
	cs, err := Build(context.Background(), d, omegas, nil, Config{Sigma: 0, Samples: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs.Clouds {
		f, err := fault.ParseSetID(c.ID)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := d.Signature(f, omegas)
		if err != nil {
			t.Fatal(err)
		}
		for j := range omegas {
			if math.Abs(c.Mean[j]-sig[j]) > 1e-12 {
				t.Fatalf("%s ω[%d]: cloud mean %.15g vs signature %.15g", c.ID, j, c.Mean[j], sig[j])
			}
			// (Σx)/n reintroduces one ulp of rounding, so the sample
			// variance of identical draws is ~1e-33, not exactly 0.
			if c.Var[j] > 1e-30 {
				t.Fatalf("%s: nonzero variance %g under σ=0", c.ID, c.Var[j])
			}
		}
	}
	// Scoring an exact signature must put its component on top with
	// high confidence.
	target := cs.Clouds[3]
	res, err := cs.Score(target.Mean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best().Key != target.Key {
		t.Fatalf("σ=0 self-score: best %q, want %q", res.Best().Key, target.Key)
	}
	if res.Confidence <= 0 || res.Confidence > 1 {
		t.Fatalf("confidence = %g", res.Confidence)
	}
	var total float64
	for _, c := range res.Candidates {
		total += c.Probability
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("posterior sums to %g", total)
	}
}

// Likelihood ranking must beat (or match) the nearest-signature
// baseline on a noisy hold-out — the tentpole's reason to exist.
func TestLikelihoodBeatsNearestUnderTolerance(t *testing.T) {
	cut := circuits.NFLowpass7()
	d := buildDict(t, cut)
	omegas := []float64{0.5, 2}
	const sigma = 0.05
	cs, err := Build(context.Background(), d, omegas, nil, Config{Sigma: sigma, Samples: 120, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	m, err := trajectory.Build(nil, d, omegas)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := diagnosis.New(m)
	if err != nil {
		t.Fatal(err)
	}
	var nearestHits, likelihoodHits, trials int
	rng := rand.New(rand.NewSource(99))
	for _, comp := range d.Universe().Components {
		for _, dev := range []float64{-0.35, -0.2, 0.2, 0.35} {
			board, err := fault.Tolerance{Sigma: sigma}.Perturb(d.Golden(), rng)
			if err != nil {
				t.Fatal(err)
			}
			if err := board.ScaleValue(comp, 1+dev); err != nil {
				t.Fatal(err)
			}
			sig, err := d.CircuitSignature(board, omegas)
			if err != nil {
				t.Fatal(err)
			}
			trials++
			res, err := dg.Diagnose(sig)
			if err != nil {
				t.Fatal(err)
			}
			if res.Best().Component == comp {
				nearestHits++
			}
			pres, err := cs.Score(sig)
			if err != nil {
				t.Fatal(err)
			}
			if pres.Best().Key == comp {
				likelihoodHits++
			}
		}
	}
	t.Logf("trials=%d nearest=%d likelihood=%d", trials, nearestHits, likelihoodHits)
	if likelihoodHits < nearestHits {
		t.Fatalf("likelihood top-1 %d/%d below nearest baseline %d/%d",
			likelihoodHits, trials, nearestHits, trials)
	}
}

// Heavy tolerance makes small deviations of one component
// indistinguishable: ambiguity groups must materialize, carry valid
// members, and ride along with every diagnosis of a member.
func TestAmbiguityGroups(t *testing.T) {
	cut := circuits.NFLowpass7()
	d := buildDict(t, cut)
	omegas := []float64{0.5, 2}
	cs, err := Build(context.Background(), d, omegas, nil, Config{Sigma: 0.2, Samples: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Groups) == 0 {
		t.Fatal("σ=0.2 produced no ambiguity groups")
	}
	seen := map[string]int{}
	for gi, g := range cs.Groups {
		if len(g) < 2 {
			t.Fatalf("group %d has %d members", gi, len(g))
		}
		for _, id := range g {
			if prev, dup := seen[id]; dup {
				t.Fatalf("%s appears in groups %d and %d", id, prev, gi)
			}
			seen[id] = gi
		}
	}
	for _, c := range cs.Clouds {
		if gi, ok := seen[c.ID]; ok {
			if c.Group != gi {
				t.Fatalf("%s: Group = %d, membership says %d", c.ID, c.Group, gi)
			}
		} else if c.Group != -1 {
			t.Fatalf("%s: Group = %d but in no group", c.ID, c.Group)
		}
	}
	// A grouped cloud's own mean must report its group.
	var grouped *Cloud
	for i := range cs.Clouds {
		if cs.Clouds[i].Group >= 0 {
			grouped = &cs.Clouds[i]
			break
		}
	}
	res, err := cs.Score(grouped.Mean)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.AmbiguityGroup) < 2 {
		t.Fatalf("diagnosis of grouped cloud %s reported ambiguity group %v", grouped.ID, res.AmbiguityGroup)
	}
	found := false
	for _, id := range res.AmbiguityGroup {
		if id == grouped.ID {
			found = true
		}
	}
	if !found {
		t.Fatalf("winner %s missing from its own ambiguity group %v", grouped.ID, res.AmbiguityGroup)
	}
}

// The JSON shape is the artifact payload: a round-trip must validate
// and score identically.
func TestCloudSetJSONRoundTrip(t *testing.T) {
	cut := circuits.SallenKeyLP()
	d := buildDict(t, cut)
	omegas := []float64{0.5, 2}
	cs, err := Build(context.Background(), d, omegas, nil, Config{
		Sigma: 0.05, Samples: 24, Seed: 5, NoiseSigma: []float64{1e-4, 1e-4},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(cs)
	if err != nil {
		t.Fatal(err)
	}
	var back CloudSet
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if !back.MatchesOmegas(omegas) || back.MatchesOmegas([]float64{0.5}) {
		t.Fatal("MatchesOmegas misbehaves after round-trip")
	}
	point := cs.Clouds[1].Mean
	a, err := cs.Score(point)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.Score(point)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("round-tripped cloud set scores differently")
	}
}

func TestBuildValidation(t *testing.T) {
	cut := circuits.NFLowpass7()
	d := buildDict(t, cut)
	omegas := []float64{0.5, 2}
	cases := []Config{
		{Sigma: 0.05, Samples: 0, Seed: 1},                           // no samples
		{Sigma: 0.5, Samples: 4, Seed: 1},                            // sigma out of range
		{Sigma: -0.1, Samples: 4, Seed: 1},                           // negative sigma
		{Sigma: 0.05, Samples: 4, Seed: 1, NoiseSigma: []float64{1}}, // noise dim mismatch
		{Sigma: 0.05, Samples: 4, Seed: 1, OverlapThreshold: 2},      // bad threshold
	}
	for i, cfg := range cases {
		if _, err := Build(context.Background(), d, omegas, nil, cfg); err == nil {
			t.Fatalf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if _, err := Build(context.Background(), nil, omegas, nil, Config{Sigma: 0.05, Samples: 1}); err == nil {
		t.Fatal("nil dictionary accepted")
	}
	if _, err := Build(context.Background(), d, nil, nil, Config{Sigma: 0.05, Samples: 1}); err == nil {
		t.Fatal("empty frequency grid accepted")
	}
	cs, err := Build(context.Background(), d, omegas, nil, Config{Sigma: 0.05, Samples: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cs.Score([]float64{1}); err == nil {
		t.Fatal("dimension mismatch accepted by Score")
	}
}

// Double-fault sets ride along as extra clouds with composite keys.
func TestBuildWithExtraSets(t *testing.T) {
	cut := circuits.NFLowpass7()
	d := buildDict(t, cut)
	omegas := []float64{0.5, 2}
	pairs, err := d.Universe().Pairs([]float64{-0.2, 0.3}, 6)
	if err != nil {
		t.Fatal(err)
	}
	extra := make([]fault.Set, len(pairs))
	for i, p := range pairs {
		extra[i] = p
	}
	cs, err := Build(context.Background(), d, omegas, extra, Config{Sigma: 0.02, Samples: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := d.Universe().Size() + len(extra)
	if len(cs.Clouds) != want {
		t.Fatalf("clouds = %d, want %d", len(cs.Clouds), want)
	}
	multi := cs.Clouds[len(cs.Clouds)-1]
	if len(multi.Components) != 2 {
		t.Fatalf("extra cloud %s has %d components", multi.ID, len(multi.Components))
	}
	res, err := cs.Score(multi.Mean)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best().Key == "" {
		t.Fatal("empty best key")
	}
}
