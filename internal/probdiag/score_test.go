package probdiag

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/circuits"
	"repro/internal/diagnosis"
	"repro/internal/fault"
)

// refScore is Score as it aggregated before: a map pre-sized to the
// cloud count with one *agg per key, ranked with sort.SliceStable. It is
// the oracle of the leaner aggregation.
func refScore(cs *CloudSet, point []float64) *diagnosis.ProbResult {
	n, nf := len(cs.Clouds), len(cs.Omegas)
	ll := make([]float64, n)
	best := 0
	for i := range cs.Clouds {
		c := &cs.Clouds[i]
		var acc float64
		for j := 0; j < nf; j++ {
			v := cs.totalVar(c, j)
			d := point[j] - c.Mean[j]
			acc += d*d/v + math.Log(2*math.Pi*v)
		}
		ll[i] = -0.5 * acc
		if ll[i] > ll[best] {
			best = i
		}
	}
	var norm float64
	post := make([]float64, n)
	for i := range ll {
		post[i] = math.Exp(ll[i] - ll[best])
		norm += post[i]
	}
	type agg struct {
		prob    float64
		bestIdx int
	}
	order := make([]string, 0, n)
	byKey := make(map[string]*agg, n)
	for i := range cs.Clouds {
		post[i] /= norm
		k := cs.Clouds[i].Key
		a, ok := byKey[k]
		if !ok {
			a = &agg{bestIdx: i}
			byKey[k] = a
			order = append(order, k)
		}
		a.prob += post[i]
		if ll[i] > ll[a.bestIdx] {
			a.bestIdx = i
		}
	}
	res := &diagnosis.ProbResult{Point: append([]float64(nil), point...)}
	for _, k := range order {
		a := byKey[k]
		c := &cs.Clouds[a.bestIdx]
		res.Candidates = append(res.Candidates, diagnosis.ProbCandidate{
			Key: k, Components: c.Components, ID: c.ID, Deviations: c.Deviations,
			LogLikelihood: ll[a.bestIdx], Probability: a.prob,
		})
	}
	sort.SliceStable(res.Candidates, func(i, j int) bool {
		a, b := &res.Candidates[i], &res.Candidates[j]
		if a.Probability != b.Probability {
			return a.Probability > b.Probability
		}
		if a.LogLikelihood != b.LogLikelihood {
			return a.LogLikelihood > b.LogLikelihood
		}
		return a.Key < b.Key
	})
	res.Confidence = res.Candidates[0].Probability
	if g := cs.Clouds[best].Group; g >= 0 {
		res.AmbiguityGroup = append([]string(nil), cs.Groups[g]...)
	}
	return res
}

// TestScoreMatchesReference pins Score against refScore bit for bit
// (%#v prints every float in its shortest exact form): on single-fault
// and double-fault cloud sets of the paper CUT, at cloud means, noisy
// points, the origin, far away and at an overflowing point, and on a
// hand-made set whose keys tie on probability and likelihood, so the
// key order decides.
func TestScoreMatchesReference(t *testing.T) {
	d := buildDict(t, circuits.NFLowpass7())
	omegas := []float64{0.56, 4.55}
	pairs, err := d.Universe().Pairs([]float64{-0.2, 0.3}, 12)
	if err != nil {
		t.Fatal(err)
	}
	extra := make([]fault.Set, len(pairs))
	for i, p := range pairs {
		extra[i] = p
	}
	tie := &CloudSet{
		Omegas: []float64{1, 2}, OverlapThreshold: DefaultOverlapThreshold, VarFloor: 1e-12,
		Clouds: []Cloud{
			{ID: "B@+10%", Key: "B", Mean: []float64{0.1, 0.2}, Var: []float64{1e-4, 1e-4}, Group: -1},
			{ID: "A@+10%", Key: "A", Mean: []float64{0.1, 0.2}, Var: []float64{1e-4, 1e-4}, Group: -1},
			{ID: "C@+10%", Key: "C", Mean: []float64{0.3, 0.1}, Var: []float64{1e-4, 1e-4}, Group: -1},
			{ID: "A@+20%", Key: "A", Mean: []float64{0.2, 0.2}, Var: []float64{1e-4, 1e-4}, Group: -1},
			{ID: "B@+20%", Key: "B", Mean: []float64{0.2, 0.2}, Var: []float64{1e-4, 1e-4}, Group: -1},
		},
	}
	rng := rand.New(rand.NewSource(4))
	for _, extra := range [][]fault.Set{nil, extra} {
		cs, err := Build(context.Background(), d, omegas, extra, Config{Sigma: 0.05, Samples: 16, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		// {1e200, 1e200} overflows every log-likelihood to -Inf, so every
		// probability is NaN and only the comparisons' NaN behaviour
		// decides the order.
		points := [][]float64{{0, 0}, {3, -3}, {1e200, 1e200}}
		for _, c := range cs.Clouds {
			points = append(points, c.Mean, []float64{
				c.Mean[0] + 0.01*rng.NormFloat64(), c.Mean[1] + 0.01*rng.NormFloat64(),
			})
		}
		for _, p := range points {
			checkScore(t, cs, p)
		}
	}
	for _, p := range [][]float64{{0.1, 0.2}, {0.2, 0.2}, {0.15, 0.2}, {0, 0}} {
		checkScore(t, tie, p)
	}
}

func checkScore(t *testing.T, cs *CloudSet, p []float64) {
	t.Helper()
	got, err := cs.Score(p)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := fmt.Sprintf("%#v", *got), fmt.Sprintf("%#v", *refScore(cs, p)); g != w {
		t.Fatalf("Score(%v) differs from the reference:\n got: %s\nwant: %s", p, g, w)
	}
}

// TestScoreAllocations bounds the heap allocations of one Score over
// the paper CUT's 56 clouds at ω = {0.56, 4.55}.
func TestScoreAllocations(t *testing.T) {
	d := buildDict(t, circuits.NFLowpass7())
	cs, err := Build(context.Background(), d, []float64{0.56, 4.55}, nil, Config{Sigma: 0.05, Samples: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := []float64{-0.015, -0.002}
	// Nine with Go 1.24: the likelihood buffer, four growths of the
	// seven-key aggregate slice, the result, its candidates, its point
	// and its ambiguity group; the key index stays on the stack.
	const ceiling = 9
	got := testing.AllocsPerRun(100, func() {
		if _, err := cs.Score(p); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Fatalf("Score allocates %v times per call, want at most %d", got, ceiling)
	}
}
