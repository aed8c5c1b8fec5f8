package engine

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/fault"
)

// sparseWorkerCounts is the satellite contract's worker sweep.
func sparseWorkerCounts() []int {
	return []int{1, 4, runtime.NumCPU()}
}

// pinSparseAgainstDense runs one CUT's fault load through the forced
// dense path and the forced sparse path at every worker count and fails
// on any relative disagreement above 1e-9 (with the usual notch-null
// noise floor). It returns the engine's path counters.
func pinSparseAgainstDense(t *testing.T, cut circuits.CUT, singles []fault.Fault, doubles []fault.Set, omegas []float64) PathStatsSnapshot {
	t.Helper()
	eng, err := New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Template().SparsePattern() == nil {
		t.Fatalf("CUT %s compiled no sparse pattern", cut.Circuit.Name())
	}

	eng.SetFactorPath(FactorDense)
	refSingles, err := eng.BatchResponses(nil, singles, omegas, 1)
	if err != nil {
		t.Fatal(err)
	}
	refDoubles, err := eng.BatchResponsesSets(nil, doubles, omegas, 1)
	if err != nil {
		t.Fatal(err)
	}
	var peak float64
	for _, g := range refSingles.Golden {
		if g > peak {
			peak = g
		}
	}
	floor := 1e-3 * peak

	eng.SetFactorPath(FactorSparse)
	for _, workers := range sparseWorkerCounts() {
		tag := fmt.Sprintf("workers=%d sparse vs dense", workers)
		gotSingles, err := eng.BatchResponses(nil, singles, omegas, workers)
		if err != nil {
			t.Fatal(err)
		}
		checkBatch(t, tag, gotSingles, refSingles, floor)
		gotDoubles, err := eng.BatchResponsesSets(nil, doubles, omegas, workers)
		if err != nil {
			t.Fatal(err)
		}
		checkBatch(t, tag, gotDoubles, refDoubles, floor)
	}
	return eng.Stats()
}

// TestSparseMatchesDenseAllCUTs is the sparse acceptance pin: on every
// built-in CUT the forced-sparse golden path must agree with the
// forced-dense path to 1e-9 relative over the full single-fault paper
// universe and the complete double-fault pair universe, at worker
// counts {1, 4, NumCPU}.
func TestSparseMatchesDenseAllCUTs(t *testing.T) {
	for _, cut := range circuits.All() {
		cut := cut
		t.Run(cut.Circuit.Name(), func(t *testing.T) {
			pinSparseAgainstDense(t, cut,
				paperSingles(t, cut), doublePairs(t, cut), testOmegas(cut.Omega0))
		})
	}
}

// TestSparseMatchesDenseScalingCUTs extends the pin to the scaling tier
// — sizes past the auto crossover, where sparse actually runs by
// default — with the double universe capped to keep runtime sane.
func TestSparseMatchesDenseScalingCUTs(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling CUTs are slow under -short")
	}
	lad, err := circuits.RCLadder(96)
	if err != nil {
		t.Fatal(err)
	}
	casc, err := circuits.OpampCascade(12)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := circuits.RCGrid(16)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []circuits.CUT{lad, casc, grid} {
		cut := cut
		t.Run(cut.Circuit.Name(), func(t *testing.T) {
			u, err := fault.PaperUniverse(cut.Passives)
			if err != nil {
				t.Fatal(err)
			}
			singles := []fault.Fault{{}}
			for i, c := range u.Components {
				if i%3 == 0 { // every third component keeps the sweep broad but bounded
					for _, d := range u.Deviations {
						singles = append(singles, fault.Fault{Component: c, Deviation: d})
					}
				}
			}
			pairs, err := u.Pairs([]float64{-0.5, 0.5}, 40)
			if err != nil {
				t.Fatal(err)
			}
			doubles := make([]fault.Set, len(pairs))
			for i, p := range pairs {
				doubles[i] = p
			}
			omegas := []float64{cut.Omega0 / 5, cut.Omega0, cut.Omega0 * 3}
			pinSparseAgainstDense(t, cut, singles, doubles, omegas)
		})
	}
}

// randomLadderCUT builds an n-section ladder with randomized element
// values: RC sections (series R, shunt C), or LC sections (series L,
// shunt C) between resistive terminations when lc is set.
func randomLadderCUT(rng *rand.Rand, n int, lc bool) circuits.CUT {
	kind := "rc"
	if lc {
		kind = "lc"
	}
	c := circuit.New(fmt.Sprintf("quick-%s-ladder-%d", kind, n))
	c.MustAdd(circuit.NewVSource("Vin", "n0", "0", 1))
	val := func() float64 { return 0.5 + 1.5*rng.Float64() }
	passives := []string{}
	prevNode := "n0"
	if lc {
		c.MustAdd(circuit.NewResistor("Rs", "n0", "t0", 1))
		prevNode = "t0"
	}
	for i := 1; i <= n; i++ {
		cur := fmt.Sprintf("t%d", i)
		sn := fmt.Sprintf("S%d", i)
		cn := fmt.Sprintf("C%d", i)
		if lc {
			c.MustAdd(circuit.NewInductor(sn, prevNode, cur, val()))
		} else {
			c.MustAdd(circuit.NewResistor(sn, prevNode, cur, val()))
		}
		c.MustAdd(circuit.NewCapacitor(cn, cur, "0", val()))
		passives = append(passives, sn, cn)
		prevNode = cur
	}
	if lc {
		c.MustAdd(circuit.NewResistor("RL", prevNode, "0", 1))
	}
	return circuits.CUT{
		Circuit:  c,
		Source:   "Vin",
		Output:   prevNode,
		Passives: passives,
		Omega0:   1 / float64(n),
	}
}

// randomMeshCUT builds a k×k RC mesh (rc-grid's shape) with randomized
// element values, driven at one corner and observed at the opposite one;
// every element is a fault target.
func randomMeshCUT(rng *rand.Rand, k int) circuits.CUT {
	c := circuit.New(fmt.Sprintf("quick-rc-mesh-%d", k))
	node := func(i, j int) string { return fmt.Sprintf("g%dx%d", i, j) }
	c.MustAdd(circuit.NewVSource("Vin", node(0, 0), "0", 1))
	val := func() float64 { return 0.5 + 1.5*rng.Float64() }
	var passives []string
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			cur := node(i, j)
			if j+1 < k {
				name := fmt.Sprintf("Rh%dx%d", i, j)
				c.MustAdd(circuit.NewResistor(name, cur, node(i, j+1), val()))
				passives = append(passives, name)
			}
			if i+1 < k {
				name := fmt.Sprintf("Rv%dx%d", i, j)
				c.MustAdd(circuit.NewResistor(name, cur, node(i+1, j), val()))
				passives = append(passives, name)
			}
			name := fmt.Sprintf("C%dx%d", i, j)
			c.MustAdd(circuit.NewCapacitor(name, cur, "0", val()))
			passives = append(passives, name)
		}
	}
	return circuits.CUT{
		Circuit:  c,
		Source:   "Vin",
		Output:   node(k-1, k-1),
		Passives: passives,
		Omega0:   1 / float64(2*(k-1)),
	}
}

// TestSparseMatchesDenseQuick is the testing/quick property pin: random
// RC and LC ladders of random size and random 2-D RC meshes (k from 3 to
// 14, 10–197 unknowns), random single and double faults, sparse == dense
// to 1e-9 at worker counts {1, 4, NumCPU}. The path counters show the
// sparse-vector kernel ran, and that the per-batch kernel choice takes
// both sides across the cases (meshes read from half-solves, ladders,
// whose reaches run to the root, mostly keep the block solve): two fixed
// seeds, a ladder and a mesh, run after the random ones so the check
// does not depend on the draw.
func TestSparseMatchesDenseQuick(t *testing.T) {
	var svCols, blockCols int64
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var cut circuits.CUT
		if rng.Intn(3) == 0 {
			cut = randomMeshCUT(rng, 3+rng.Intn(12))
		} else {
			n := 4 + rng.Intn(48)
			cut = randomLadderCUT(rng, n, rng.Intn(2) == 1)
		}

		devs := []float64{-0.5, -0.2, 0.3, 0.5}
		singles := []fault.Fault{{}}
		for i := 0; i < 12; i++ {
			singles = append(singles, fault.Fault{
				Component: cut.Passives[rng.Intn(len(cut.Passives))],
				Deviation: devs[rng.Intn(len(devs))],
			})
		}
		var doubles []fault.Set
		for i := 0; i < 8; i++ {
			a := rng.Intn(len(cut.Passives))
			b := rng.Intn(len(cut.Passives))
			if a == b {
				continue
			}
			m, err := fault.NewMulti(
				fault.Fault{Component: cut.Passives[a], Deviation: devs[rng.Intn(len(devs))]},
				fault.Fault{Component: cut.Passives[b], Deviation: devs[rng.Intn(len(devs))]},
			)
			if err != nil {
				t.Fatal(err)
			}
			doubles = append(doubles, m)
		}
		w0 := cut.Omega0
		omegas := []float64{w0 / 4, w0, w0 * 2.7}

		// Not t.Fatal on mismatch — pinSparseAgainstDense does that, which
		// reports the failing seed through quick.CheckError's value dump.
		st := pinSparseAgainstDense(t, cut, singles, doubles, omegas)
		svCols += st.SparseVectorColumns
		blockCols += st.SupernodalRefactors - st.SparseVectorColumns
		return !t.Failed()
	}
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 5} {
		if !property(seed) {
			t.Fatalf("fixed seed %d failed", seed)
		}
	}
	if svCols == 0 || blockCols == 0 {
		t.Fatalf("sparse columns by kernel: %d sparse-vector, %d block; want both", svCols, blockCols)
	}
}

// TestSparseFactorPathSelection pins the auto heuristic and its
// overrides: small circuits stay dense, large sparse circuits go
// sparse, and SetFactorPath forces either way.
func TestSparseFactorPathSelection(t *testing.T) {
	small := circuits.NFLowpass7()
	engSmall, err := New(small.Circuit, small.Source, small.Output)
	if err != nil {
		t.Fatal(err)
	}
	if got := engSmall.FactorPathName(); got != "dense" {
		t.Errorf("small CUT auto path = %q, want dense (n=%d)", got, engSmall.Nodes())
	}
	engSmall.SetFactorPath(FactorSparse)
	if got := engSmall.FactorPathName(); got != "sparse" {
		t.Errorf("small CUT forced sparse = %q", got)
	}

	lad, err := circuits.RCLadder(128)
	if err != nil {
		t.Fatal(err)
	}
	engLad, err := New(lad.Circuit, lad.Source, lad.Output)
	if err != nil {
		t.Fatal(err)
	}
	if engLad.Nodes() < 128 {
		t.Fatalf("rc-ladder-128 has %d unknowns, want >= 128", engLad.Nodes())
	}
	if engLad.NNZ() == 0 {
		t.Error("rc-ladder-128 reports zero pattern nonzeros")
	}
	if got := engLad.FactorPathName(); got != "sparse" {
		t.Errorf("rc-ladder-128 auto path = %q, want sparse (n=%d, nnz=%d)", got, engLad.Nodes(), engLad.NNZ())
	}
	engLad.SetFactorPath(FactorDense)
	if got := engLad.FactorPathName(); got != "dense" {
		t.Errorf("rc-ladder-128 forced dense = %q", got)
	}
	engLad.SetFactorPath(FactorAuto)

	// The auto sparse default must still produce dense-identical results
	// through the public batch API (no forcing at all).
	omegas := testOmegas(lad.Omega0)
	singles := paperSingles(t, lad)[:40]
	auto, err := engLad.BatchResponses(nil, singles, omegas, 2)
	if err != nil {
		t.Fatal(err)
	}
	engLad.SetFactorPath(FactorDense)
	dense, err := engLad.BatchResponses(nil, singles, omegas, 2)
	if err != nil {
		t.Fatal(err)
	}
	var peak float64
	for _, g := range dense.Golden {
		if g > peak {
			peak = g
		}
	}
	for i := range singles {
		for j := range omegas {
			if re := relErrFloor(auto.Mags[i][j], dense.Mags[i][j], 1e-3*peak); re > 1e-9 {
				t.Fatalf("auto vs dense fault %s ω=%g: %.15g vs %.15g", singles[i].ID(), omegas[j], auto.Mags[i][j], dense.Mags[i][j])
			}
		}
	}
}

// TestSparseBatchAllocationFree proves the per-frequency sparse
// refactor+solve steady state does not allocate: after one warm-up
// batch, repeated batches over fresh frequencies reuse every workspace
// buffer. Batches of 1, 2 and 3 frequencies all run one padded group.
func TestSparseBatchAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation drops pooled workspaces; counts are meaningless")
	}
	lad, err := circuits.RCLadder(80)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(lad.Circuit, lad.Source, lad.Output)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetFactorPath(FactorSparse)
	singles := paperSingles(t, lad)[:25]
	for _, omegas := range [][]float64{{0.005}, {0.005, 0.0125}, {0.005, 0.0125, 0.05}} {
		var out Batch
		run := func() {
			if err := eng.BatchResponsesInto(nil, singles, omegas, 1, &out); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm-up: sizes the pooled workspace and the batch storage
		i := 0
		avg := testing.AllocsPerRun(30, func() {
			i++
			omegas[0] = 0.005 + float64(i%50)*1e-6
			run()
		})
		// < 1 rather than 0: a GC pass mid-measurement can empty the
		// engine's workspace pool, exactly like the repo-level fitness
		// guard.
		if avg >= 1 {
			t.Fatalf("%d-frequency sparse batch allocates %.2f objects/run in steady state, want < 1", len(omegas), avg)
		}
	}
}

// TestColdBuildMemoryBounded pins the cold path's memory on a
// thousand-node CUT, measured as runtime.MemStats.TotalAlloc deltas:
// compiling rc-grid-32 (1025 unknowns, 3008 elements) must stay under
// 20 MB, and a fresh engine's first batch — the 192-fault paper universe
// at 8 ω on 2 workers — under 40 MB. Scratch sized by the element count
// (an nslots² capacitance matrix and a 1+nslots-column block per worker)
// or dense n×n self-check stamps would take about 76 MB and 400 MB.
func TestColdBuildMemoryBounded(t *testing.T) {
	cut, err := circuits.RCGrid(32)
	if err != nil {
		t.Fatal(err)
	}
	allocMB := func(f func()) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	}
	if mb := allocMB(func() { _, err = Compile(cut.Circuit) }); err != nil {
		t.Fatal(err)
	} else if mb >= 20 {
		t.Errorf("Compile(rc-grid-32) allocated %.1f MB, want < 20", mb)
	}
	eng, err := New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		t.Fatal(err)
	}
	u := mustUniverse(t, cut)
	var faults []fault.Fault
	for _, c := range u.Components {
		for _, d := range u.Deviations {
			faults = append(faults, fault.Fault{Component: c, Deviation: d})
		}
	}
	if len(faults) != 192 {
		t.Fatalf("paper universe has %d faults, want 192", len(faults))
	}
	omegas := make([]float64, 8)
	for i := range omegas {
		omegas[i] = cut.Omega0 * math.Pow(10, float64(i)/2-1.5)
	}
	var b *Batch
	if mb := allocMB(func() { b, err = eng.BatchResponses(nil, faults, omegas, 2) }); err != nil {
		t.Fatal(err)
	} else if mb >= 40 {
		t.Errorf("first rc-grid-32 batch allocated %.1f MB, want < 40", mb)
	}
	if eng.FactorPathName() != "sparse" || len(b.Mags) != len(faults) {
		t.Fatalf("batch ran on the %s path with %d rows", eng.FactorPathName(), len(b.Mags))
	}
}
