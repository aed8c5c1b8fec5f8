package dictionary

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/numeric"
)

// circuitNewDanglingResistor returns a resistor touching a node nothing
// else references, which fails circuit validation on assembly.
func circuitNewDanglingResistor() circuit.Element {
	return circuit.NewResistor("Rdangle", "nowhere", "0", 1)
}

func paperDict(t *testing.T) *Dictionary {
	t.Helper()
	cut := circuits.NFLowpass7()
	u, err := fault.PaperUniverse(cut.Passives)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(cut.Circuit, cut.Source, cut.Output, u)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidates(t *testing.T) {
	cut := circuits.NFLowpass7()
	if _, err := New(cut.Circuit, cut.Source, cut.Output, nil); err == nil {
		t.Fatal("nil universe accepted")
	}
	u, _ := fault.PaperUniverse([]string{"R99"})
	if _, err := New(cut.Circuit, cut.Source, cut.Output, u); err == nil {
		t.Fatal("bad universe accepted")
	}
}

func TestGoldenResponseMatchesDirectAnalysis(t *testing.T) {
	d := paperDict(t)
	// DC gain of the CUT is 0.5 (|−R4/(R1+R2)|).
	m, err := d.GoldenResponse(1e-4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-0.5) > 1e-3 {
		t.Fatalf("golden |H(0)| = %g, want 0.5", m)
	}
}

func TestResponseMovesWithFault(t *testing.T) {
	d := paperDict(t)
	f := fault.Fault{Component: "C2", Deviation: 0.4}
	g, err := d.GoldenResponse(1)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := d.Response(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fm-g) < 1e-4 {
		t.Fatalf("C2+40%% did not move |H(1)|: %g vs %g", fm, g)
	}
}

// TestMemoization: the grids are all a dictionary stores. Point queries
// store nothing, whether they miss or hit a grid, and a grid build
// stores its cells.
func TestMemoization(t *testing.T) {
	d := paperDict(t)
	if d.CachedCount() != 0 {
		t.Fatalf("fresh dictionary has %d cached", d.CachedCount())
	}
	f := fault.Fault{Component: "R3", Deviation: 0.2}
	pair := pairSets(t, d, 1)[0]
	query := func() {
		t.Helper()
		if _, err := d.GoldenResponse(1); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Response(f, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ResponseSet(pair, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Signature(f, []float64{1, 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.SnapshotSets([]float64{1, 2}, []fault.Set{pair}); err != nil {
			t.Fatal(err)
		}
	}
	query()
	if n, ids := d.CachedCount(), d.CachedFaultIDs(); n != 0 || len(ids) != 0 {
		t.Fatalf("point queries stored %d points, IDs %v; want none", n, ids)
	}
	if err := d.BuildGrid(nil, []float64{1}, 1); err != nil {
		t.Fatal(err)
	}
	const want = 7*8 + 1
	ids := d.CachedFaultIDs()
	if n := d.CachedCount(); n != want || len(ids) != want || !slices.Contains(ids, "golden") {
		t.Fatalf("after a grid build: %d cached, IDs %v; want %d with the golden row", n, ids, want)
	}
	// Hits at ω = 1 and misses at ω = 2 store nothing either.
	query()
	if n := d.CachedCount(); n != want || !slices.Equal(d.CachedFaultIDs(), ids) {
		t.Fatalf("point queries after a grid build: %d cached, want %d", n, want)
	}
}

func TestResponseMatchesScalarReference(t *testing.T) {
	// The engine-backed Response must agree with the pre-engine
	// clone+assemble+solve path on the whole universe.
	d := paperDict(t)
	omegas := numeric.Logspace(0.05, 20, 5)
	faults := append([]fault.Fault{{}}, d.Universe().Faults()...)
	for _, f := range faults {
		for _, w := range omegas {
			fast, err := d.Response(f, w)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := d.ScalarResponse(f, w)
			if err != nil {
				t.Fatal(err)
			}
			if diff := math.Abs(fast - ref); diff > 1e-9*math.Max(1, ref) {
				t.Fatalf("fault %s ω=%g: engine %.15g vs scalar %.15g", f.ID(), w, fast, ref)
			}
		}
	}
}

func TestUniverseSignaturesAlignment(t *testing.T) {
	// Batched signatures are row-aligned with Universe().Faults() and
	// agree with the per-point Signature path.
	d := paperDict(t)
	omegas := []float64{0.5, 2}
	sigs, err := d.UniverseSignaturesInto(nil, omegas, &SignatureScratch{})
	if err != nil {
		t.Fatal(err)
	}
	faults := d.Universe().Faults()
	if len(sigs) != len(faults) {
		t.Fatalf("rows = %d, want %d", len(sigs), len(faults))
	}
	for i, f := range faults {
		want, err := d.Signature(f, omegas)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if diff := math.Abs(sigs[i][j] - want[j]); diff > 1e-9 {
				t.Fatalf("fault %s: batch %v vs scalar %v", f.ID(), sigs[i], want)
			}
		}
	}
	if _, err := d.Signatures(nil, faults, nil); err == nil {
		t.Fatal("empty test vector accepted")
	}
}

func TestSignatureGoldenAtOrigin(t *testing.T) {
	d := paperDict(t)
	sig, err := d.Signature(fault.Fault{}, []float64{0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range sig {
		if v != 0 {
			t.Fatalf("golden signature = %v, want zeros", sig)
		}
	}
	if _, err := d.Signature(fault.Fault{}, nil); err == nil {
		t.Fatal("empty test vector accepted")
	}
}

func TestSignatureAntisymmetricDirections(t *testing.T) {
	// Opposite deviations of the same component must push the signature
	// to opposite sides of the origin (the paper's monotonicity premise).
	// R4 sets the DC gain (|H(0)| = R4/(R1+R2)), so at a deep in-band
	// frequency its ± deviations move |H| in opposite directions.
	d := paperDict(t)
	up, err := d.Signature(fault.Fault{Component: "R4", Deviation: 0.4}, []float64{0.05})
	if err != nil {
		t.Fatal(err)
	}
	dn, err := d.Signature(fault.Fault{Component: "R4", Deviation: -0.4}, []float64{0.05})
	if err != nil {
		t.Fatal(err)
	}
	if up[0] <= 0 || dn[0] >= 0 {
		t.Fatalf("R4 ±40%% signatures not antisymmetric: %g and %g", up[0], dn[0])
	}
}

func TestBuildGridAndSnapshot(t *testing.T) {
	d := paperDict(t)
	grid := numeric.Logspace(0.1, 10, 5)
	if err := d.BuildGrid(nil, grid, 3); err != nil {
		t.Fatal(err)
	}
	// Universe 7 components × 8 deviations + golden = 57 rows × 5 freqs.
	want := (7*8 + 1) * 5
	if got := d.CachedCount(); got != want {
		t.Fatalf("cached = %d, want %d", got, want)
	}
	// Counts are of distinct (ID, ω) points: rebuilding the same grid adds
	// none, and a fault-set grid on the same ω adds its rows but not a
	// second golden row.
	ids := d.CachedFaultIDs()
	if err := d.BuildGrid(nil, grid, 2); err != nil {
		t.Fatal(err)
	}
	if got := d.CachedCount(); got != want {
		t.Fatalf("cached after rebuild = %d, want %d", got, want)
	}
	if again := d.CachedFaultIDs(); !slices.Equal(again, ids) {
		t.Fatalf("fault IDs changed on rebuild: %d → %d", len(ids), len(again))
	}
	pairs := pairSets(t, d, 10)
	for range 2 {
		if err := d.BuildGridSets(nil, pairs, grid, 2); err != nil {
			t.Fatal(err)
		}
		if got, want := d.CachedCount(), (7*8+1+len(pairs))*5; got != want {
			t.Fatalf("cached after pair grid = %d, want %d", got, want)
		}
	}
	if got := len(d.CachedFaultIDs()); got != 7*8+1+len(pairs) {
		t.Fatalf("%d cached fault IDs, want %d", got, 7*8+1+len(pairs))
	}
	snap, err := d.Snapshot(grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Entries) != 57 {
		t.Fatalf("entries = %d, want 57", len(snap.Entries))
	}
	if snap.Entries[0].ID != "golden" {
		t.Fatalf("first entry = %q", snap.Entries[0].ID)
	}
	data, err := snap.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseExport(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Entries) != len(snap.Entries) || back.Circuit != snap.Circuit {
		t.Fatal("export round trip mismatch")
	}
}

func TestParseExportRejectsBad(t *testing.T) {
	if _, err := ParseExport([]byte("{")); err == nil {
		t.Fatal("bad json accepted")
	}
	if _, err := ParseExport([]byte(`{"omegas":[1],"entries":[]}`)); err == nil {
		t.Fatal("empty entries accepted")
	}
	if _, err := ParseExport([]byte(`{"omegas":[1,2],"entries":[{"id":"golden","mags":[1]}]}`)); err == nil {
		t.Fatal("misaligned mags accepted")
	}
}

func TestAccessors(t *testing.T) {
	d := paperDict(t)
	if d.Source() != "Vin" || d.Output() != "out" {
		t.Fatalf("source/output = %q/%q", d.Source(), d.Output())
	}
	if d.Universe().Size() != 56 {
		t.Fatalf("universe size = %d", d.Universe().Size())
	}
	g := d.Golden()
	if err := g.SetValue("R1", 999); err != nil {
		t.Fatal(err)
	}
	// The dictionary's own golden must be unaffected.
	m1, _ := d.GoldenResponse(0.5)
	d2 := paperDict(t)
	m2, _ := d2.GoldenResponse(0.5)
	if math.Abs(m1-m2) > 1e-12 {
		t.Fatal("Golden() leaked internal state")
	}
}

func TestCircuitSignatureVariants(t *testing.T) {
	d := paperDict(t)
	// A clone of the golden circuit has a zero signature.
	sig, err := d.CircuitSignature(d.Golden(), []float64{0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range sig {
		if v != 0 {
			t.Fatalf("golden variant signature = %v", sig)
		}
	}
	// Validation.
	if _, err := d.CircuitSignature(d.Golden(), nil); err == nil {
		t.Fatal("empty test vector accepted")
	}
	// A structurally broken variant errors instead of returning junk.
	broken := d.Golden()
	broken.MustAdd(circuitNewDanglingResistor())
	if _, err := d.CircuitSignature(broken, []float64{1}); err == nil {
		t.Fatal("broken variant accepted")
	}
}

// TestCircuitSignatureGoldenRow: CircuitSignature keeps the golden term
// of the last test vector only. Callers switching vectors, also from
// several goroutines at once, get a fresh dictionary's points bit for
// bit.
func TestCircuitSignatureGoldenRow(t *testing.T) {
	d := paperDict(t)
	variant, err := fault.Fault{Component: "R3", Deviation: 0.25}.Apply(d.Golden())
	if err != nil {
		t.Fatal(err)
	}
	vectors := [][]float64{{0.5, 2}, {2, 0.5}, {0.5, 2, 7}, {0.5}}
	want := make([][]float64, len(vectors))
	for i, omegas := range vectors {
		if want[i], err = paperDict(t).CircuitSignature(variant, omegas); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			for r := 0; r < 8; r++ {
				i := (g + r) % len(vectors)
				got, err := d.CircuitSignature(variant, vectors[i])
				if err == nil && !slices.Equal(got, want[i]) {
					err = fmt.Errorf("at %v: %v, fresh dictionary %v", vectors[i], got, want[i])
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestResponseErrorPaths(t *testing.T) {
	d := paperDict(t)
	// Unknown component in the fault: surfaces from the clone/scale.
	if _, err := d.Response(fault.Fault{Component: "R99", Deviation: 0.1}, 1); err == nil {
		t.Fatal("unknown component accepted")
	}
	// Negative frequency propagates the analysis error.
	if _, err := d.GoldenResponse(-1); err == nil {
		t.Fatal("negative frequency accepted")
	}
	// Deviation at -100% is rejected by Apply.
	if _, err := d.Response(fault.Fault{Component: "R1", Deviation: -1}, 1); err == nil {
		t.Fatal("-100% deviation accepted")
	}
}

func TestBuildGridPropagatesErrors(t *testing.T) {
	d := paperDict(t)
	if err := d.BuildGrid(nil, []float64{1, -5}, 2); err == nil {
		t.Fatal("grid with negative frequency accepted")
	}
	// Default worker count path.
	if err := d.BuildGrid(nil, []float64{0.7}, 0); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotPropagatesErrors(t *testing.T) {
	d := paperDict(t)
	if _, err := d.Snapshot([]float64{-2}); err == nil {
		t.Fatal("snapshot with bad frequency accepted")
	}
}

func TestConcurrentAccess(t *testing.T) {
	d := paperDict(t)
	grid := []float64{0.3, 1, 3}
	pairs := pairSets(t, d, 12)
	const readers, builders = 8, 4
	done := make(chan error, readers+builders+1)
	for i := 0; i < readers; i++ {
		go func() {
			var err error
			for _, f := range d.Universe().Faults()[:10] {
				if _, e := d.Signature(f, grid); e != nil {
					err = e
				}
			}
			done <- err
		}()
	}
	for i := 0; i < builders; i++ {
		go func() {
			if i%2 == 0 {
				done <- d.BuildGrid(nil, grid, 2)
				return
			}
			done <- d.BuildGridSets(nil, pairs, grid[1:], 2)
		}()
	}
	go func() {
		var err error
		for _, set := range pairs {
			if _, e := d.ResponseSet(set, grid[0]); e != nil {
				err = e
			}
			if _, e := d.SnapshotSets(grid[:1], pairs[:2]); e != nil {
				err = e
			}
			_ = d.CachedCount()
		}
		done <- err
	}()
	for i := 0; i < readers+builders+1; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// The distinct points stored do not depend on the interleaving: the
	// universe grid's at three ω and the pair grid's at two. The pairs'
	// point queries at grid[0] store nothing.
	if got, want := d.CachedCount(), (7*8+1)*3+len(pairs)*2; got != want {
		t.Fatalf("cached = %d, want %d", got, want)
	}
}

// pairSets returns the first n double faults of d's universe as sets.
func pairSets(t *testing.T, d *Dictionary, n int) []fault.Set {
	t.Helper()
	pairs, err := d.Universe().Pairs(nil, n)
	if err != nil {
		t.Fatal(err)
	}
	sets := make([]fault.Set, len(pairs))
	for i, p := range pairs {
		sets[i] = p
	}
	return sets
}

// TestMemoLastWriteWins pins which computation a point serves when
// several have stored it: the latest, bit for bit.
func TestMemoLastWriteWins(t *testing.T) {
	d := paperDict(t)
	eng := d.Engine()
	faults := d.Universe().Faults()
	omegas := []float64{0.05, 0.5, 5}

	// A point stored by Response, then a grid over the same ω.
	f := fault.Fault{Component: "R4", Deviation: 0.2}
	row := slices.Index(faults, f)
	for _, w := range omegas[:2] {
		if _, err := d.Response(f, w); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.BuildGrid(nil, omegas, 2); err != nil {
		t.Fatal(err)
	}
	batch, err := eng.BatchResponses(nil, faults, omegas, 1)
	if err != nil {
		t.Fatal(err)
	}
	for j, w := range omegas {
		if got, _ := d.Response(f, w); got != batch.Mags[row][j] {
			t.Fatalf("%s at ω=%g: %v, grid batch %v", f.ID(), w, got, batch.Mags[row][j])
		}
		if got, _ := d.GoldenResponse(w); got != batch.Golden[j] {
			t.Fatalf("golden at ω=%g: %v, grid batch %v", w, got, batch.Golden[j])
		}
	}

	// Two grids sharing ω: the newer one. Its sets repeat one set and one
	// ω, and the later row and column serve.
	pairs := pairSets(t, d, 6)
	if err := d.BuildGridSets(nil, pairs, omegas[:2], 2); err != nil {
		t.Fatal(err)
	}
	newer := append(pairs[2:], pairs[3])
	newerW := []float64{0.5, 7, 0.5}
	if err := d.BuildGridSets(nil, newer, newerW, 2); err != nil {
		t.Fatal(err)
	}
	nb, err := eng.BatchResponsesSets(nil, newer, newerW, 1)
	if err != nil {
		t.Fatal(err)
	}
	last := len(newer) - 1
	for i, set := range newer {
		if i == 1 {
			i = last // pairs[3] appears twice: the later row serves
		}
		for j, w := range newerW {
			if j == 0 {
				j = 2 // 0.5 appears twice: the later column serves
			}
			if got, _ := d.ResponseSet(set, w); got != nb.Mags[i][j] {
				t.Fatalf("%s at ω=%g: %v, newer grid %v", set.ID(), w, got, nb.Mags[i][j])
			}
		}
	}
	if got, _ := d.GoldenResponse(0.5); got != nb.Golden[2] {
		t.Fatalf("golden at ω=0.5: %v, newer grid %v", got, nb.Golden[2])
	}
}

// TestMemoLimitKeepsGridPrefix: a grid larger than MemoLimit stores the
// cells that fit, golden row first and then rows in input order, and a
// dropped cell is computed without growing the store.
func TestMemoLimitKeepsGridPrefix(t *testing.T) {
	d := paperDict(t)
	omegas := numeric.Logspace(0.01, 100, 1150) // 57 rows × 1150 ω = 65 550 cells
	if err := d.BuildGrid(nil, omegas, 2); err != nil {
		t.Fatal(err)
	}
	if got := d.CachedCount(); got != MemoLimit {
		t.Fatalf("cached = %d, want MemoLimit %d", got, MemoLimit)
	}
	batch, err := d.Engine().BatchResponses(nil, d.Universe().Faults(), omegas, 2)
	if err != nil {
		t.Fatal(err)
	}
	rows := append([]fault.Fault{{}}, d.Universe().Faults()...)
	for r, f := range rows {
		for j, w := range omegas {
			if r*len(omegas)+j >= MemoLimit {
				break
			}
			want := batch.Golden[j]
			if r > 0 {
				want = batch.Mags[r-1][j]
			}
			if got, err := d.Response(f, w); err != nil || got != want {
				t.Fatalf("kept cell %s at ω=%g: %v (%v), batch %v", f.ID(), w, got, err, want)
			}
		}
	}
	f, w := rows[len(rows)-1], omegas[len(omegas)-1]
	got, err := d.Response(f, w)
	if err != nil {
		t.Fatal(err)
	}
	if want := batch.Mags[len(rows)-2][len(omegas)-1]; math.Abs(got-want) > 1e-9*math.Max(1, want) {
		t.Fatalf("dropped cell %s at ω=%g: %v, batch %v", f.ID(), w, got, want)
	}
	if got := d.CachedCount(); got != MemoLimit {
		t.Fatalf("cached after a dropped cell = %d, want MemoLimit %d", got, MemoLimit)
	}
}

// TestBuildGridSetsOwnsItsInputs: mutating the caller's ω list or a
// Multi's parts after BuildGridSets changes no stored answer.
func TestBuildGridSetsOwnsItsInputs(t *testing.T) {
	d := paperDict(t)
	omegas := []float64{0.3, 1, 3}
	m, err := fault.NewMulti(fault.Fault{Component: "R1", Deviation: 0.2}, fault.Fault{Component: "R4", Deviation: -0.3})
	if err != nil {
		t.Fatal(err)
	}
	orig := append(fault.Multi(nil), m...)
	origW := append([]float64(nil), omegas...)
	if err := d.BuildGridSets(nil, []fault.Set{m}, omegas, 1); err != nil {
		t.Fatal(err)
	}
	want, err := d.SnapshotSets(origW, []fault.Set{orig})
	if err != nil {
		t.Fatal(err)
	}
	count := d.CachedCount()
	omegas[0], omegas[2] = 2, 5
	m[0].Deviation, m[1].Component = 0.4, "C1"
	got, err := d.SnapshotSets(origW, []fault.Set{orig})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("stored answers changed after the caller mutated its inputs")
	}
	if got := d.CachedCount(); got != count {
		t.Fatalf("cached = %d after mutation, want %d", got, count)
	}
}

// TestMemoMatchesDeviationExactly: IDs round deviations to whole
// percents, so R4@+20.4 % and R4@+19.6 % share the ID "R4@+20%". Every
// answer must still be the queried deviation's own, bit for bit what a
// fresh dictionary computes.
func TestMemoMatchesDeviationExactly(t *testing.T) {
	const w = 0.05
	up := fault.Fault{Component: "R4", Deviation: 0.204}
	down := fault.Fault{Component: "R4", Deviation: 0.196}
	fresh := func(set fault.Set) float64 {
		t.Helper()
		v, err := paperDict(t).ResponseSet(set, w)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	check := func(d *Dictionary, set fault.Set, after string) {
		t.Helper()
		got, err := d.ResponseSet(set, w)
		if err != nil {
			t.Fatal(err)
		}
		if want := fresh(set); got != want {
			t.Fatalf("%s (%v) after %s: %.17g, fresh dictionary %.17g", set.ID(), set.Parts(), after, got, want)
		}
	}

	// The scalar reference path answers each deviation with its own.
	d := paperDict(t)
	for _, f := range []fault.Fault{up, down} {
		got, err := d.ScalarResponse(f, w)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := paperDict(t).ScalarResponse(f, w); got != want {
			t.Fatalf("ScalarResponse(%v): %.17g, fresh dictionary %.17g", f, got, want)
		}
	}

	// Misses sharing an ID, in both orders and on repeat.
	d = paperDict(t)
	check(d, up, "nothing")
	check(d, down, "a miss for +20.4 %")
	check(d, down, "misses for +20.4 % and +19.6 %")
	check(d, up, "misses for both")

	// Against a universe grid row (R4@+20 %).
	d = paperDict(t)
	if err := d.BuildGrid(nil, []float64{w, 0.5}, 1); err != nil {
		t.Fatal(err)
	}
	check(d, up, "a grid holding +20 %")
	if _, err := d.Signature(down, []float64{w}); err != nil {
		t.Fatal(err)
	}
	check(d, down, "a grid holding +20 % and a signature")

	// Against a fault-set grid row.
	pair, err := fault.NewMulti(fault.Fault{Component: "R1", Deviation: 0.1}, fault.Fault{Component: "R4", Deviation: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	near := fault.Multi{pair[0], up}
	if err := d.BuildGridSets(nil, []fault.Set{pair}, []float64{w}, 1); err != nil {
		t.Fatal(err)
	}
	check(d, near, "a grid holding "+pair.ID())
	// The grid still serves the pair it holds.
	b, err := d.Engine().BatchResponsesSets(nil, []fault.Set{pair}, []float64{w}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := d.ResponseSet(pair, w); got != b.Mags[0][0] {
		t.Fatalf("%s: %v, grid batch %v", pair.ID(), got, b.Mags[0][0])
	}
}

// TestPointMissMatchesGrid pins the one per-point path: a miss solves a
// one-item plan on the engine path that fills grids. On every built-in
// CUT, rc-grid-16 and opamp-cascade-16, a fresh dictionary's Response
// and GoldenResponse misses equal a BuildGrid dictionary's cells bit for
// bit, Signature equals the SignaturesSets row bit for bit, and a miss
// stores nothing. On rc-ladder-64 the sparse
// kernel rule picks different column kernels for the grid and for a
// one-item plan, so there they agree within 1e-12 relative to the
// response (the golden response, for a signature).
func TestPointMissMatchesGrid(t *testing.T) {
	grid, err := circuits.RCGrid(16)
	if err != nil {
		t.Fatal(err)
	}
	casc, err := circuits.OpampCascade(16)
	if err != nil {
		t.Fatal(err)
	}
	lad, err := circuits.RCLadder(64)
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		cut circuits.CUT
		tol float64 // 0: bit for bit
	}
	var runs []run
	for _, cut := range circuits.All() {
		runs = append(runs, run{cut, 0})
	}
	runs = append(runs, run{grid, 0}, run{casc, 0}, run{lad, 1e-12})
	for _, r := range runs {
		cut := r.cut
		name := cut.Circuit.Name()
		u, err := fault.PaperUniverse(cut.Passives)
		if err != nil {
			t.Fatal(err)
		}
		newDict := func() *Dictionary {
			d, err := New(cut.Circuit, cut.Source, cut.Output, u)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return d
		}
		check := func(what string, got, want, scale float64) {
			t.Helper()
			if got != want && !(r.tol > 0 && math.Abs(got-want) <= r.tol*scale) {
				t.Fatalf("%s: %s: miss %.17g, grid %.17g", name, what, got, want)
			}
		}
		omegas := []float64{cut.Omega0 / 3, cut.Omega0, cut.Omega0 * 3}
		faults := u.Faults()
		built := newDict()
		if err := built.BuildGrid(nil, omegas, 2); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rows, err := built.SignaturesSets(nil, fault.Sets(faults), omegas)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fresh, points := newDict(), newDict()
		golden := make([]float64, len(omegas))
		for j, w := range omegas {
			got, err := fresh.GoldenResponse(w)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if golden[j], err = built.GoldenResponse(w); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			check(fmt.Sprintf("golden at ω=%g", w), got, golden[j], golden[j])
		}
		for i, f := range faults {
			for _, w := range omegas {
				got, err := fresh.Response(f, w)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, err := built.Response(f, w)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				check(fmt.Sprintf("%s at ω=%g", f.ID(), w), got, want, math.Abs(want))
			}
			sig, err := points.Signature(f, omegas)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for j, w := range omegas {
				check(fmt.Sprintf("signature of %s at ω=%g", f.ID(), w), sig[j], rows[i][j], golden[j])
			}
		}

		// A miss stores nothing, its column's golden response included.
		d := newDict()
		if _, err := d.Response(faults[0], omegas[1]); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n, ids := d.CachedCount(), d.CachedFaultIDs(); n != 0 || len(ids) != 0 {
			t.Fatalf("%s: after a miss: %d cached, IDs %v; want none", name, n, ids)
		}
	}
}

// TestSignatureMissMemoryBounded: a Signature miss runs on the engine's
// sparse path, so one fault at two ω on rc-grid-64 (4097 unknowns)
// allocates far less than one dense 4097² complex matrix (269 MB).
func TestSignatureMissMemoryBounded(t *testing.T) {
	cut, err := circuits.RCGrid(64)
	if err != nil {
		t.Fatal(err)
	}
	u, err := fault.PaperUniverse(cut.Passives)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(cut.Circuit, cut.Source, cut.Output, u)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sig, err := d.Signature(fault.Fault{Component: "C3x3", Deviation: 0.25}, []float64{0.5, 2})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb >= 64 {
		t.Errorf("Signature miss on rc-grid-64 allocated %.1f MB, want < 64", mb)
	}
	if len(sig) != 2 || sig[0] == 0 {
		t.Fatalf("signature %v", sig)
	}
}
