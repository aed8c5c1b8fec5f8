package numeric

import (
	"fmt"
	"sort"
)

// This file holds the structural side of the compiled SparseSymbolic
// schedule and the partial refactorization built on it:
//
//   - buildSupernodes — one-time detection of supernodes (maximal runs
//     of consecutive permuted rows whose U patterns are nested and whose
//     in-block L is dense). Their count and widest run describe how
//     blocked a pattern is; benchmark reports record both;
//
//   - SparseLU.PartialRefactor — clone a base factorization and
//     re-eliminate only the rows transitively affected by a set of
//     touched rows (exact reachability over the static L patterns), for
//     fault deltas that break the SMW guards but not the factorization.
//
// The golden numeric refactorization itself is BlockRefactorer.
// FactorLanes (freqblock.go); RefactorReuse is its scalar reference.
//
// A supernode here is a run [s, e) of permuted rows such that
//
//   (1) U(r) = U(r-1) \ {r-1} for every r in (s, e)   (nested U), and
//   (2) L(r) ⊇ {s, …, r-1}                            (dense in-block L),
//
// so all rows of the supernode share one external column list
// ext(S) = U(s) ∩ [e, n) and their in-block columns [s, e) are dense.
// Runs are capped at maxPanelWidth; splitting a run into consecutive
// chunks preserves both invariants.

// maxPanelWidth caps supernode width. The cap shapes what Supernodes
// and MaxPanel report, so it stays fixed to keep those statistics
// comparable across benchmark records.
const maxPanelWidth = 32

// buildSupernodes detects supernodes over the computed fill pattern.
// Called once at the end of AnalyzeSparse.
func (s *SparseSymbolic) buildSupernodes() {
	n := s.n
	rs, dp, cols := s.rowStart, s.diagPos, s.cols
	s.snStart = append(s.snStart[:0], 0)
	s.maxPanel = 1
	start := 0
	for r := 1; r <= n; r++ {
		join := false
		if r < n && r-start < maxPanelWidth {
			w := r - start
			lenU := rs[r+1] - dp[r]
			lenUp := rs[r] - dp[r-1]
			join = lenU == lenUp-1 && dp[r]-rs[r] >= w
			if join {
				// Nested U: row r's U segment equals row r-1's minus
				// its diagonal.
				for q := 0; q < lenU; q++ {
					if cols[dp[r]+q] != cols[dp[r-1]+1+q] {
						join = false
						break
					}
				}
			}
			if join {
				// Dense in-block L: the w pattern entries just left of
				// the diagonal are exactly start … r-1.
				for q := 0; q < w; q++ {
					if cols[dp[r]-w+q] != start+q {
						join = false
						break
					}
				}
			}
		}
		if !join {
			if w := r - start; w > s.maxPanel {
				s.maxPanel = w
			}
			s.snStart = append(s.snStart, int32(r))
			start = r
		}
	}
}

// Supernodes returns the number of supernodes in the schedule.
func (s *SparseSymbolic) Supernodes() int { return len(s.snStart) - 1 }

// MaxPanel returns the widest supernode (rows per panel).
func (s *SparseSymbolic) MaxPanel() int { return s.maxPanel }

// RowOfIndex returns the permuted row owning value-plane position t
// (binary search; intended for compile-time program construction).
func (s *SparseSymbolic) RowOfIndex(t int) int {
	if t < 0 || t >= len(s.cols) {
		return -1
	}
	return sort.SearchInts(s.rowStart, t+1) - 1
}

// PartialRefactor clones base's factorization over the same symbolic
// pattern and re-eliminates only the rows transitively affected by the
// given touched permuted rows under the patched value planes are/aim:
// row i is recomputed when it is touched or when any column of its L
// pattern is a recomputed row (exact reachability over the static
// patterns — a superset of the touched columns' elimination-tree
// ancestors for unsymmetric fill). Untouched rows keep base's values
// verbatim, so the result is bit-identical to a from-scratch
// RefactorReuse on the patched planes. It returns the number of rows
// recomputed. The pivot guard is re-derived from the patched magnitude;
// when it tightens past base's, the kept pivots are re-checked so
// accept/reject matches the from-scratch sweep.
func (f *SparseLU) PartialRefactor(base *SparseLU, are, aim []float64, touched []int) (int, error) {
	// A base that FactorLanes prepared but CopyOut never filled has empty
	// value slices; copying from it would keep f's stale factors.
	if base.sym == nil || len(base.vre) != len(base.sym.cols) {
		return 0, fmt.Errorf("numeric: partial refactor from unfactored base: %w", ErrDimension)
	}
	sym := base.sym
	if err := f.prepRefactor(sym, are, aim); err != nil {
		return 0, err
	}
	n := sym.n
	copy(f.vre, base.vre)
	copy(f.vim, base.vim)
	copy(f.ire, base.ire)
	copy(f.iim, base.iim)

	if len(f.markRow) < n {
		f.markRow = make([]int, n)
		f.markGen = 0
	}
	f.markGen++
	gen := f.markGen
	min := n
	for _, r := range touched {
		if r < 0 || r >= n {
			return 0, fmt.Errorf("numeric: partial refactor touched row %d out of range n=%d: %w", r, n, ErrDimension)
		}
		f.markRow[r] = gen
		if r < min {
			min = r
		}
	}

	cols, rs, dp := sym.cols, sym.rowStart, sym.diagPos
	count := 0
	for i := min; i < n; i++ {
		m := f.markRow[i] == gen
		if !m {
			for t := rs[i]; t < dp[i]; t++ {
				if f.markRow[cols[t]] == gen {
					m = true
					break
				}
			}
			if m {
				f.markRow[i] = gen
			}
		}
		if !m {
			continue
		}
		count++
		if err := f.factorRowScalar(i, are, aim); err != nil {
			return count, err
		}
	}

	// The guard derives from the patched magnitude; if it tightened,
	// pivots inherited from base must pass it too, exactly as a
	// from-scratch refactorization would demand.
	if f.guard2 > base.guard2 {
		for i := 0; i < n; i++ {
			if f.markRow[i] == gen && i >= min {
				continue
			}
			dr, di := f.vre[dp[i]], f.vim[dp[i]]
			if dr*dr+di*di < f.guard2 {
				return count, fmt.Errorf("numeric: pivot at row %d below static-pivot guard: %w", i, ErrSingular)
			}
		}
	}
	return count, nil
}
