package engine

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/obs"
)

// TestPathStatsCounting pins the path-counter bookkeeping: golden
// factorizations per column, one rank-1 solve per non-golden single
// fault per column, one rank-k solve per multi-fault item per column,
// memo hit/miss accounting across repeated single-fault batches, and
// which sparse column kernel a batch ran.
func TestPathStatsCounting(t *testing.T) {
	cut := circuits.NFLowpass7()
	eng, err := New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		t.Fatal(err)
	}
	u, err := fault.PaperUniverse(cut.Passives)
	if err != nil {
		t.Fatal(err)
	}
	faults := u.Faults()
	omegas := []float64{0.5, 1, 2}

	if _, err := eng.BatchResponses(nil, faults, omegas, 1); err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if s.MemoMisses != 1 || s.MemoHits != 0 {
		t.Fatalf("first batch: memo hits/misses = %d/%d, want 0/1", s.MemoHits, s.MemoMisses)
	}
	// Every column factors the golden system once; this small CUT stays
	// on the dense path.
	if s.DenseFactors < int64(len(omegas)) {
		t.Errorf("DenseFactors = %d, want >= %d", s.DenseFactors, len(omegas))
	}
	if s.SparseFactors != 0 {
		t.Errorf("SparseFactors = %d, want 0 on a small dense CUT", s.SparseFactors)
	}
	// One rank-1 solve per non-golden fault per column, minus any items
	// that fell back (those are counted in both).
	wantRank1 := int64(len(faults) * len(omegas))
	if s.Rank1Solves != wantRank1 {
		t.Errorf("Rank1Solves = %d, want %d", s.Rank1Solves, wantRank1)
	}
	// Fallback factorizations are dense here, so DenseFactors must equal
	// columns + fallbacks exactly.
	if s.DenseFactors != int64(len(omegas))+s.ExactFallbacks {
		t.Errorf("DenseFactors = %d, want columns %d + fallbacks %d",
			s.DenseFactors, len(omegas), s.ExactFallbacks)
	}

	// Same fault list again: the resolution memo must hit.
	if _, err := eng.BatchResponses(nil, faults, omegas, 1); err != nil {
		t.Fatal(err)
	}
	s = eng.Stats()
	if s.MemoHits != 1 || s.MemoMisses != 1 {
		t.Fatalf("second batch: memo hits/misses = %d/%d, want 1/1", s.MemoHits, s.MemoMisses)
	}

	// A multi-fault set routes through the rank-k path once per column.
	pair, err := fault.NewMulti(
		fault.Fault{Component: cut.Passives[0], Deviation: 0.3},
		fault.Fault{Component: cut.Passives[1], Deviation: -0.2},
	)
	if err != nil {
		t.Fatal(err)
	}
	before := eng.Stats()
	if _, err := eng.BatchResponsesSets(nil, []fault.Set{pair}, omegas, 1); err != nil {
		t.Fatal(err)
	}
	s = eng.Stats()
	if got := s.RankKSolves - before.RankKSolves; got != int64(len(omegas)) {
		t.Errorf("RankKSolves delta = %d, want %d", got, len(omegas))
	}
	if s.MemoHits != before.MemoHits || s.MemoMisses != before.MemoMisses {
		t.Errorf("set batches must not touch the memo counters")
	}
	if s.SparseVectorColumns != 0 {
		t.Errorf("SparseVectorColumns = %d on a dense CUT", s.SparseVectorColumns)
	}

	// Sparse columns: an RC mesh batch reads every column's corrections
	// from the reach-limited half-solves; a ladder batch over every
	// passive, whose reaches run to the root of the elimination tree,
	// keeps the block solve and leaves the counter alone.
	grid, err := circuits.RCGrid(8)
	if err != nil {
		t.Fatal(err)
	}
	lad, err := circuits.RCLadder(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		cut  circuits.CUT
		want int64
	}{{grid, int64(len(omegas))}, {lad, 0}} {
		eng, err := New(c.cut.Circuit, c.cut.Source, c.cut.Output)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetFactorPath(FactorSparse)
		if _, err := eng.BatchResponses(nil, paperSingles(t, c.cut), omegas, 1); err != nil {
			t.Fatal(err)
		}
		s := eng.Stats()
		if s.SupernodalRefactors != int64(len(omegas)) || s.SparseVectorColumns != c.want {
			t.Errorf("%s: %d sparse columns, %d sparse-vector, want %d and %d",
				c.cut.Circuit.Name(), s.SupernodalRefactors, s.SparseVectorColumns, len(omegas), c.want)
		}
	}
}

// TestSnapshotAdd pins the aggregation arithmetic the serving layer
// relies on.
func TestSnapshotAdd(t *testing.T) {
	a := PathStatsSnapshot{DenseFactors: 1, Rank1Solves: 2, MemoHits: 3, SparseVectorColumns: 6}
	a.Add(PathStatsSnapshot{DenseFactors: 10, SparseFactors: 5, RankKSolves: 7, MemoMisses: 4, SparseVectorColumns: 2})
	want := PathStatsSnapshot{DenseFactors: 11, SparseFactors: 5, Rank1Solves: 2, RankKSolves: 7, MemoHits: 3, MemoMisses: 4, SparseVectorColumns: 8}
	if a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
}

// TestEngineTracerSetPathOnly verifies the span contract: fault-set
// batches record one "engine.column" span per frequency, and the
// single-fault path (the GA fitness hot path) records none even with a
// tracer installed.
func TestEngineTracerSetPathOnly(t *testing.T) {
	cut := circuits.NFLowpass7()
	eng, err := New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	eng.SetTracer(tr)

	omegas := []float64{0.5, 1, 2}
	faults := []fault.Fault{{Component: cut.Passives[0], Deviation: 0.3}}
	if _, err := eng.BatchResponses(nil, faults, omegas, 1); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Spans()); got != 0 {
		t.Fatalf("single-fault batch recorded %d spans, want 0", got)
	}

	sets := []fault.Set{fault.Fault{Component: cut.Passives[0], Deviation: 0.3}}
	if _, err := eng.BatchResponsesSets(nil, sets, omegas, 1); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	if len(spans) != len(omegas) {
		t.Fatalf("set batch recorded %d spans, want %d", len(spans), len(omegas))
	}
	for _, sp := range spans {
		if sp.Name != "engine.column" {
			t.Fatalf("span name %q, want engine.column", sp.Name)
		}
	}
}
