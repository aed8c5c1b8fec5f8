package engine

import (
	"fmt"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
)

// paperSingles returns the paper deviation universe of a CUT as a flat
// fault list (component-major, deviations ascending), plus the golden.
func paperSingles(t testing.TB, cut circuits.CUT) []fault.Fault {
	t.Helper()
	u, err := fault.PaperUniverse(cut.Passives)
	if err != nil {
		t.Fatal(err)
	}
	out := []fault.Fault{{}}
	for _, c := range u.Components {
		for _, d := range u.Deviations {
			out = append(out, fault.Fault{Component: c, Deviation: d})
		}
	}
	return out
}

// doublePairs returns every component-pair double fault of a CUT at the
// paper deviations, as fault sets.
func doublePairs(t testing.TB, cut circuits.CUT) []fault.Set {
	t.Helper()
	u, err := fault.PaperUniverse(cut.Passives)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := u.Pairs(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	sets := make([]fault.Set, len(pairs))
	for i, p := range pairs {
		sets[i] = p
	}
	return sets
}

// TestBlockedMatchesScalarAllCUTs is the blocked-kernel acceptance pin:
// on every built-in CUT, the blocked SoA column solver must agree with
// the per-point reference (analysis.AC of the faulted clone, assembled
// and factored per point) to within 1e-9 relative error over the golden,
// the full single-fault paper universe AND the complete double-fault
// pair universe, at every worker count. Responses far below the CUT's
// response scale (notch nulls) are compared against a noise floor,
// exactly like the other engine-vs-reference pins.
func TestBlockedMatchesScalarAllCUTs(t *testing.T) {
	for _, cut := range circuits.All() {
		cut := cut
		t.Run(cut.Circuit.Name(), func(t *testing.T) {
			eng, err := New(cut.Circuit, cut.Source, cut.Output)
			if err != nil {
				t.Fatal(err)
			}
			omegas := testOmegas(cut.Omega0)
			singles := paperSingles(t, cut)
			doubles := doublePairs(t, cut)
			reference := func(set fault.Set) []float64 { return acResponses(t, cut, set, omegas) }
			refSingles := make([][]float64, len(singles))
			for i, f := range singles {
				refSingles[i] = reference(f)
			}
			refDoubles := make([][]float64, len(doubles))
			for i, s := range doubles {
				refDoubles[i] = reference(s)
			}
			// singles[0] is the golden.
			var peak float64
			for _, g := range refSingles[0] {
				if g > peak {
					peak = g
				}
			}
			floor := 1e-3 * peak

			for _, workers := range []int{1, 2, 3, 8} {
				gotSingles, err := eng.BatchResponses(nil, singles, omegas, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i := range singles {
					for j := range omegas {
						if re := relErrFloor(gotSingles.Mags[i][j], refSingles[i][j], floor); re > 1e-9 {
							t.Fatalf("workers=%d fault %s ω=%g: blocked %.15g vs analysis %.15g (rel %.3g)",
								workers, singles[i].ID(), omegas[j], gotSingles.Mags[i][j], refSingles[i][j], re)
						}
					}
				}
				for j := range omegas {
					if re := relErrFloor(gotSingles.Golden[j], refSingles[0][j], floor); re > 1e-9 {
						t.Fatalf("workers=%d golden ω=%g: blocked %.15g vs analysis %.15g",
							workers, omegas[j], gotSingles.Golden[j], refSingles[0][j])
					}
				}
				gotDoubles, err := eng.BatchResponsesSets(nil, doubles, omegas, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i := range doubles {
					for j := range omegas {
						if re := relErrFloor(gotDoubles.Mags[i][j], refDoubles[i][j], floor); re > 1e-9 {
							t.Fatalf("workers=%d set %s ω=%g: blocked %.15g vs analysis %.15g (rel %.3g)",
								workers, doubles[i].ID(), omegas[j], gotDoubles.Mags[i][j], refDoubles[i][j], re)
						}
					}
				}
			}
		})
	}
}

// TestBlockedWorkerCountInvariance pins that the blocked path is
// bit-identical across worker counts: columns are solved independently
// in self-contained workspaces, so the worker decomposition must never
// leak into results.
func TestBlockedWorkerCountInvariance(t *testing.T) {
	cut := circuits.NFLowpass7()
	eng, err := New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		t.Fatal(err)
	}
	omegas := testOmegas(cut.Omega0)
	singles := paperSingles(t, cut)
	ref, err := eng.BatchResponses(nil, singles, omegas, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 5, 16} {
		got, err := eng.BatchResponses(nil, singles, omegas, workers)
		if err != nil {
			t.Fatal(err)
		}
		checkBitIdentical(t, fmt.Sprintf("workers=%d", workers), got, ref)
	}
}

// BenchmarkColumnKernels times one solve of the single-fault universe
// plan (paper CUT, 2 frequencies — the GA fitness shape) through the
// column solver.
func BenchmarkColumnKernels(b *testing.B) {
	cut := circuits.NFLowpass7()
	eng, err := New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		b.Fatal(err)
	}
	plan := testPlan(b, eng, paperSingles(b, cut))
	omegas := []float64{0.5, 2}
	var out Batch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		omegas[0] = 0.5 + float64(i%100)*1e-5
		omegas[1] = 2 + float64(i%100)*1e-5
		if err := eng.SolveInto(nil, plan, omegas, 1, nil, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColumnKernelsMulti is BenchmarkColumnKernels over the
// double-fault pair universe (the rank-k Woodbury shape).
func BenchmarkColumnKernelsMulti(b *testing.B) {
	cut := circuits.NFLowpass7()
	eng, err := New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		b.Fatal(err)
	}
	plan := testPlan(b, eng, doublePairs(b, cut))
	omegas := []float64{0.5, 2}
	var out Batch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := eng.SolveInto(nil, plan, omegas, 1, nil, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColumnKernelsSparse times sparse-path batches through the
// column solver, one worker, 4 frequencies (one refactor group), each
// over a plan resolved once: the
// thousand-node grid's 192 singles (the dict-grid shape), the op-amp
// cascade's double faults over every 5th passive at ±30 % (the
// dict-pairs shape, rank-2 cross terms), and the 512-section ladder with
// every passive faulted, where reaches run to the root of the
// elimination tree.
func BenchmarkColumnKernelsSparse(b *testing.B) {
	grid, err := circuits.RCGrid(32)
	if err != nil {
		b.Fatal(err)
	}
	casc, err := circuits.OpampCascade(32)
	if err != nil {
		b.Fatal(err)
	}
	lad, err := circuits.RCLadder(512)
	if err != nil {
		b.Fatal(err)
	}
	var cascComps []string
	for i := 0; i < len(casc.Passives); i += 5 {
		cascComps = append(cascComps, casc.Passives[i])
	}
	u, err := fault.NewUniverse(cascComps, []float64{-0.3, 0.3})
	if err != nil {
		b.Fatal(err)
	}
	pairs, err := u.Pairs(nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	cascSets := make([]fault.Set, len(pairs))
	for i, p := range pairs {
		cascSets[i] = p
	}
	var ladSingles []fault.Fault
	for _, c := range lad.Passives {
		ladSingles = append(ladSingles, fault.Fault{Component: c, Deviation: 0.3})
	}
	for _, c := range []struct {
		name    string
		cut     circuits.CUT
		singles []fault.Fault
		sets    []fault.Set
	}{
		{"rc-grid-32", grid, paperSingles(b, grid)[1:], nil},
		{"opamp-cascade-32-pairs", casc, nil, cascSets},
		{"rc-ladder-512-all", lad, ladSingles, nil},
	} {
		b.Run(c.name, func(b *testing.B) {
			eng, err := New(c.cut.Circuit, c.cut.Source, c.cut.Output)
			if err != nil {
				b.Fatal(err)
			}
			eng.SetFactorPath(FactorSparse)
			w0 := c.cut.Omega0
			omegas := []float64{w0 / 10, w0 / 2, w0 * 2, w0 * 10}
			plan := testPlan(b, eng, c.singles)
			if c.sets != nil {
				plan = testPlan(b, eng, c.sets)
			}
			var out Batch
			run := func() {
				if err := eng.SolveInto(nil, plan, omegas, 1, nil, &out); err != nil {
					b.Fatal(err)
				}
			}
			run() // sizes the pooled workspace and the batch storage
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				omegas[0] = w0/10 + float64(i%100)*1e-9*w0
				run()
			}
		})
	}
}
