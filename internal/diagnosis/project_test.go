package diagnosis

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/fault"
	"repro/internal/geometry"
	"repro/internal/trajectory"
)

// refProjection is a segment projection with its foot point made
// explicit, as geometry.ProjectN computed it before it stopped
// allocating.
type refProjection struct {
	foot     geometry.VecN
	t, dist  float64
	interior bool
}

func refSub(a, b geometry.VecN) geometry.VecN {
	out := make(geometry.VecN, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

func refProject(p, a, b geometry.VecN) refProjection {
	d := refSub(b, a)
	l2 := geometry.DotN(d, d)
	if l2 <= geometry.Eps*geometry.Eps {
		return refProjection{foot: append(geometry.VecN(nil), a...), dist: geometry.DistN(p, a)}
	}
	t := geometry.DotN(refSub(p, a), d) / l2
	tc := math.Max(0, math.Min(1, t))
	foot := make(geometry.VecN, len(a))
	for i := range foot {
		foot[i] = a[i] + tc*d[i]
	}
	return refProjection{foot: foot, t: t, dist: geometry.DistN(p, foot), interior: t > 0 && t < 1}
}

// refDiagnose is Diagnose in its two-pass form, kept as the oracle of
// the one-pass loop: the nearest segment first, then a second scan for
// the nearest interior projection, ranked with sort.SliceStable and
// deduplicated per key.
func refDiagnose(m *trajectory.Map, point geometry.VecN) *Result {
	res := &Result{Point: append(geometry.VecN(nil), point...)}
	for _, tr := range m.Trajectories {
		pl := tr.Points
		if len(pl) < 2 {
			continue
		}
		seg, near := 0, refProject(point, pl[0], pl[1])
		for i := 1; i+1 < len(pl); i++ {
			if pr := refProject(point, pl[i], pl[i+1]); pr.dist < near.dist {
				seg, near = i, pr
			}
		}
		inSeg, in := -1, refProjection{dist: math.Inf(1)}
		for i := 0; i+1 < len(pl); i++ {
			if pr := refProject(point, pl[i], pl[i+1]); pr.interior && pr.dist < in.dist {
				inSeg, in = i, pr
			}
		}
		cand := Candidate{Component: tr.Component}
		if inSeg >= 0 {
			cand.Distance = in.dist
			cand.Deviation = tr.DeviationAt(inSeg, in.t)
			cand.Perpendicular = true
		} else {
			cand.Distance = near.dist
			cand.Deviation = tr.DeviationAt(seg, near.t)
		}
		if tr.IsMulti() {
			cand.Components = append([]string(nil), tr.Components...)
			cand.Deviations = append(append([]float64(nil), tr.FixedDeviations...), cand.Deviation)
		}
		res.Candidates = append(res.Candidates, cand)
	}
	sort.SliceStable(res.Candidates, func(i, j int) bool {
		a, b := res.Candidates[i], res.Candidates[j]
		if a.Perpendicular != b.Perpendicular && math.Abs(a.Distance-b.Distance) <= 0.01*math.Max(a.Distance, b.Distance) {
			return a.Perpendicular
		}
		return a.Distance < b.Distance
	})
	seen := make(map[string]bool)
	kept := res.Candidates[:0]
	for _, c := range res.Candidates {
		if k := c.Key(); !seen[k] {
			seen[k] = true
			kept = append(kept, c)
		}
	}
	res.Candidates = kept
	return res
}

// sameBits reports the first difference between two results, comparing
// every float by its bits, or "".
func sameBits(got, want *Result) string {
	bits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	if len(got.Candidates) != len(want.Candidates) {
		return fmt.Sprintf("%d candidates, want %d", len(got.Candidates), len(want.Candidates))
	}
	for i, g := range got.Candidates {
		w := want.Candidates[i]
		if g.Component != w.Component || !bits(g.Distance, w.Distance) || !bits(g.Deviation, w.Deviation) ||
			g.Perpendicular != w.Perpendicular || fmt.Sprint(g.Components) != fmt.Sprint(w.Components) ||
			len(g.Deviations) != len(w.Deviations) {
			return fmt.Sprintf("candidate %d: %+v, want %+v", i, g, w)
		}
		for j := range g.Deviations {
			if !bits(g.Deviations[j], w.Deviations[j]) {
				return fmt.Sprintf("candidate %d deviation %d: %v, want %v", i, j, g.Deviations[j], w.Deviations[j])
			}
		}
	}
	for i := range got.Point {
		if !bits(got.Point[i], want.Point[i]) {
			return fmt.Sprintf("point %d: %v, want %v", i, got.Point[i], want.Point[i])
		}
	}
	return ""
}

// randomMap draws a trajectory map in R^k: single-fault trajectories
// and, with multi set, double-fault families that share component sets
// (so the per-key deduplication has work). About one segment in five
// has zero length.
func randomMap(rng *rand.Rand, k int, multi bool) *trajectory.Map {
	m := &trajectory.Map{Omegas: make([]float64, k)}
	for i := range m.Omegas {
		m.Omegas[i] = float64(i + 1)
	}
	vec := func(scale float64) geometry.VecN {
		v := make(geometry.VecN, k)
		for i := range v {
			v[i] = scale * rng.NormFloat64()
		}
		return v
	}
	traj := func(comp string) *trajectory.Trajectory {
		n := 2 + rng.Intn(10)
		tr := &trajectory.Trajectory{Component: comp}
		p, dev := vec(1), -0.4
		for i := 0; i < n; i++ {
			tr.Points = append(tr.Points, append(geometry.VecN(nil), p...))
			tr.Deviations = append(tr.Deviations, dev)
			dev += 0.1
			if rng.Intn(5) == 0 {
				continue // the next point repeats this one
			}
			step := vec(0.3)
			for j := range p {
				p[j] += step[j]
			}
		}
		return tr
	}
	comps := []string{"R1", "R2", "C1", "C2", "R3", "C3"}
	for _, c := range comps {
		m.Trajectories = append(m.Trajectories, traj(c))
	}
	if multi {
		for f := 0; f < 6; f++ {
			a, b := comps[rng.Intn(2)], comps[2+rng.Intn(2)]
			tr := traj(fmt.Sprintf("%s@%+d%%+%s", a, 10*(f-3), b))
			tr.Components = []string{a, b}
			tr.FixedDeviations = []float64{0.1 * float64(f-3)}
			m.Trajectories = append(m.Trajectories, tr)
		}
	}
	return m
}

// TestDiagnoseMatchesTwoPassOracle pins the one-pass Diagnose against
// the two-pass reference bit for bit: candidate order, distances,
// deviations and perpendicular flags, on seeded random maps in R², R³
// and R⁵ with zero-length segments and double-fault families, at the
// origin, on vertices, on segment midpoints, near the map, far outside
// it and where every distance overflows; then on the paper CUT's
// double-fault map.
func TestDiagnoseMatchesTwoPassOracle(t *testing.T) {
	check := func(dg *Diagnoser, p geometry.VecN, what string) {
		t.Helper()
		got, err := dg.Diagnose(p)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameBits(got, refDiagnose(dg.Map(), p)); d != "" {
			t.Fatalf("%s at %v: %s", what, []float64(p), d)
		}
	}
	for _, k := range []int{2, 3, 5} {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed*10 + int64(k)))
			m := randomMap(rng, k, seed%2 == 0)
			dg, err := New(m)
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("k=%d seed=%d", k, seed)
			check(dg, make(geometry.VecN, k), what+" origin")
			for _, tr := range m.Trajectories {
				v := tr.Points[rng.Intn(len(tr.Points))]
				check(dg, v, what+" vertex")
				i := rng.Intn(len(tr.Points) - 1)
				mid := make(geometry.VecN, k)
				for j := range mid {
					mid[j] = 0.5 * (tr.Points[i][j] + tr.Points[i+1][j])
				}
				check(dg, mid, what+" midpoint")
			}
			for r := 0; r < 20; r++ {
				p := make(geometry.VecN, k)
				for j := range p {
					p[j] = 2 * rng.NormFloat64()
				}
				check(dg, p, what+" near")
				for j := range p {
					p[j] *= 1e4
				}
				check(dg, p, what+" far")
				for j := range p {
					p[j] *= 1e196 // every squared distance overflows
				}
				check(dg, p, what+" overflowing")
			}
		}
	}

	d, _, pairs, pairDg, singleDg := doubleFixture(t)
	var trials []fault.Set
	for i := 0; i < len(pairs); i += 11 {
		trials = append(trials, pairs[i])
	}
	sigs, err := d.SignaturesSets(nil, trials, pairDg.Map().Omegas)
	if err != nil {
		t.Fatal(err)
	}
	for i, sig := range sigs {
		check(pairDg, sig, trials[i].ID()+" on the pair map")
		check(singleDg, sig, trials[i].ID()+" on the single map")
	}
	check(pairDg, make(geometry.VecN, len(pairDg.Map().Omegas)), "origin on the pair map")
}

// TestDiagnoseAllocations bounds the heap allocations of one Diagnose
// on the paper CUT at ω = {0.56, 4.55} (7 trajectories of 9 points) and
// checks that they do not grow with the segment count: the same map with
// every segment split in four allocates as often.
func TestDiagnoseAllocations(t *testing.T) {
	_, dg := setup(t, []float64{0.56, 4.55})
	dense := &trajectory.Map{Omegas: dg.Map().Omegas}
	for _, tr := range dg.Map().Trajectories {
		d := &trajectory.Trajectory{Component: tr.Component}
		for i := 0; i+1 < len(tr.Points); i++ {
			a, b := tr.Points[i], tr.Points[i+1]
			for s := 0; s < 4; s++ {
				f := float64(s) / 4
				d.Points = append(d.Points, geometry.VecN{a[0] + f*(b[0]-a[0]), a[1] + f*(b[1]-a[1])})
				d.Deviations = append(d.Deviations, tr.Deviations[i]+f*(tr.Deviations[i+1]-tr.Deviations[i]))
			}
		}
		n := len(tr.Points) - 1
		d.Points = append(d.Points, tr.Points[n])
		d.Deviations = append(d.Deviations, tr.Deviations[n])
		dense.Trajectories = append(dense.Trajectories, d)
	}
	denseDg, err := New(dense)
	if err != nil {
		t.Fatal(err)
	}
	p := geometry.VecN{-0.015, -0.002}
	allocs := func(dg *Diagnoser) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := dg.Diagnose(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Three with Go 1.24: the result, its point and its candidate slice
	// (the per-key map stays on the stack); one to spare.
	const ceiling = 4
	got, gotDense := allocs(dg), allocs(denseDg)
	if got > ceiling {
		t.Fatalf("Diagnose allocates %v times per call, want at most %d", got, ceiling)
	}
	if gotDense != got {
		t.Fatalf("Diagnose allocates %v times with 4× the segments, %v without", gotDense, got)
	}
}
