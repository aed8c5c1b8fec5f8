package engine

import (
	"sync/atomic"

	"repro/internal/obs"
)

// PathStats counts which numeric paths the engine's batch solves took.
// All fields are lock-free atomics safe to read while batches run; the
// hot column solvers accumulate into plain workspace-local ints and
// flush here once per frequency column, so the per-item loops never
// touch shared cache lines.
type PathStats struct {
	// DenseFactors / SparseFactors count full factorizations by path:
	// golden factorizations plus exact-fallback refactorizations.
	DenseFactors  atomic.Int64
	SparseFactors atomic.Int64
	// Rank1Solves / RankKSolves count batch items solved through the
	// Sherman–Morrison rank-1 shortcut and the rank-k Woodbury
	// capacitance system (attempts — items that then fell back are
	// still counted here, plus once in ExactFallbacks).
	Rank1Solves atomic.Int64
	RankKSolves atomic.Int64
	// ExactFallbacks counts items whose SMW update was ill-conditioned
	// (or cancellation-prone) and was re-solved by an exact patched
	// refactorization.
	ExactFallbacks atomic.Int64
	// SupernodalRefactors counts sparse golden columns refactored by the
	// frequency-blocked numeric phase (numeric.BlockRefactorer, the only
	// sparse golden refactorization), one per successfully refactored
	// batch column — padding planes of a short last group are not
	// counted. A subset of SparseFactors; the name predates the blocked
	// walk and is kept for report and metric continuity.
	SupernodalRefactors atomic.Int64
	// PartialRefactors counts exact fallbacks served by a partial
	// refactorization from the column's golden factors instead of a
	// from-scratch sweep; PartialRefactorColumns accumulates how many
	// matrix columns those partial refactors re-eliminated.
	PartialRefactors       atomic.Int64
	PartialRefactorColumns atomic.Int64
	// DenseFallbackExact / DenseFallbackSingular split the dense
	// factorizations on sparse-capable columns by cause: an exact-solve
	// fallback whose sparse partial refactorization was singular, vs a
	// golden sparse refactorization that tripped the static-pivot guard.
	DenseFallbackExact    atomic.Int64
	DenseFallbackSingular atomic.Int64
	// SparseVectorColumns counts sparse golden columns whose corrections
	// were read from reach-limited half-solves (sparsevec.go) instead of
	// the multi-RHS block solve. A subset of SupernodalRefactors.
	SparseVectorColumns atomic.Int64
}

// PathStatsSnapshot is a plain-value copy of PathStats, JSON-ready for
// the serving layer's /v1/stats endpoint and summable across engines.
type PathStatsSnapshot struct {
	DenseFactors   int64 `json:"dense_factors"`
	SparseFactors  int64 `json:"sparse_factors"`
	Rank1Solves    int64 `json:"rank1_solves"`
	RankKSolves    int64 `json:"rankk_solves"`
	ExactFallbacks int64 `json:"exact_fallbacks"`

	SupernodalRefactors    int64 `json:"supernodal_refactors"`
	PartialRefactors       int64 `json:"partial_refactors"`
	PartialRefactorColumns int64 `json:"partial_refactor_columns"`
	DenseFallbackExact     int64 `json:"dense_fallback_exact"`
	DenseFallbackSingular  int64 `json:"dense_fallback_singular"`
	SparseVectorColumns    int64 `json:"sparse_vector_columns"`
}

// Snapshot reads the counters. Each is loaded once; concurrent batches
// may advance counters between loads, but every individual value is a
// true count at its load instant.
func (p *PathStats) Snapshot() PathStatsSnapshot {
	return PathStatsSnapshot{
		DenseFactors:   p.DenseFactors.Load(),
		SparseFactors:  p.SparseFactors.Load(),
		Rank1Solves:    p.Rank1Solves.Load(),
		RankKSolves:    p.RankKSolves.Load(),
		ExactFallbacks: p.ExactFallbacks.Load(),

		SupernodalRefactors:    p.SupernodalRefactors.Load(),
		PartialRefactors:       p.PartialRefactors.Load(),
		PartialRefactorColumns: p.PartialRefactorColumns.Load(),
		DenseFallbackExact:     p.DenseFallbackExact.Load(),
		DenseFallbackSingular:  p.DenseFallbackSingular.Load(),
		SparseVectorColumns:    p.SparseVectorColumns.Load(),
	}
}

// Add accumulates another snapshot into this one — the serving layer
// sums live entries and retired (evicted) engines into one view.
func (s *PathStatsSnapshot) Add(o PathStatsSnapshot) {
	s.DenseFactors += o.DenseFactors
	s.SparseFactors += o.SparseFactors
	s.Rank1Solves += o.Rank1Solves
	s.RankKSolves += o.RankKSolves
	s.ExactFallbacks += o.ExactFallbacks
	s.SupernodalRefactors += o.SupernodalRefactors
	s.PartialRefactors += o.PartialRefactors
	s.PartialRefactorColumns += o.PartialRefactorColumns
	s.DenseFallbackExact += o.DenseFallbackExact
	s.DenseFallbackSingular += o.DenseFallbackSingular
	s.SparseVectorColumns += o.SparseVectorColumns
}

// flush moves the workspace-local column counters into the shared
// atomics, skipping zero adds so an all-golden column costs nothing.
func (p *PathStats) flush(ws *workspace) {
	if ws.cDense != 0 {
		p.DenseFactors.Add(ws.cDense)
	}
	if ws.cSparse != 0 {
		p.SparseFactors.Add(ws.cSparse)
	}
	if ws.cRank1 != 0 {
		p.Rank1Solves.Add(ws.cRank1)
	}
	if ws.cRankK != 0 {
		p.RankKSolves.Add(ws.cRankK)
	}
	if ws.cFallback != 0 {
		p.ExactFallbacks.Add(ws.cFallback)
	}
	if ws.cSupernodal != 0 {
		p.SupernodalRefactors.Add(ws.cSupernodal)
	}
	if ws.cPartial != 0 {
		p.PartialRefactors.Add(ws.cPartial)
	}
	if ws.cPartialCols != 0 {
		p.PartialRefactorColumns.Add(ws.cPartialCols)
	}
	if ws.cDenseExact != 0 {
		p.DenseFallbackExact.Add(ws.cDenseExact)
	}
	if ws.cDenseSingular != 0 {
		p.DenseFallbackSingular.Add(ws.cDenseSingular)
	}
	if ws.cSparseVector != 0 {
		p.SparseVectorColumns.Add(ws.cSparseVector)
	}
}

// Stats returns a snapshot of the engine's path counters.
func (e *Engine) Stats() PathStatsSnapshot { return e.stats.Snapshot() }

// SetTracer installs (or, with nil, removes) a span tracer. When set,
// the engine records one "engine.column" span per frequency column of
// every solve whose plan was resolved from fault sets (the diagnosis
// paths, dictionary grids and misses, clouds); a plan resolved from a
// []fault.Fault — the GA fitness hot path's universe plan — records
// none, so a tracer on a session costs the GA nothing per evaluation.
// Must not be toggled concurrently with a running solve.
func (e *Engine) SetTracer(t *obs.Tracer) { e.tracer = t }
