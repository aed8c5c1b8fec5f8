package numeric

import (
	"fmt"
	"sort"
	"sync"
)

// This file is the sparse counterpart of the SoA kernel layer: a complex
// sparse LU factorization with split re/im float64 planes, built for the
// circuit-simulation workload where one matrix *pattern* is factored
// numerically many times (once per frequency) with unchanging structure.
// Following the classic circuit solvers (Markowitz-style minimum-fill
// ordering; Davis & Palamadai Natarajan's KLU, designed for exactly this
// refactor-many-times regime), the work splits into
//
//   - AnalyzeSparse — one-time symbolic analysis per pattern: a maximum
//     transversal permutes rows so the diagonal is structurally nonzero,
//     a minimum-degree ordering of the symmetrized pattern keeps fill-in
//     low, and a symbolic elimination computes the static L+U fill
//     pattern and row schedule shared by every numeric factorization;
//
//   - BlockRefactorer.RefactorBlock (freqblock.go) — the numeric-only
//     refactorization the engine runs: FreqBlock frequencies' value
//     planes eliminated in one walk over the compiled pattern into
//     caller-owned SparseLUs, with no pivot search, no index discovery
//     and no allocation in steady state. SparseLU.RefactorReuse is the
//     same elimination one plane at a time — the scalar reference the
//     blocked walk is pinned against, and the row kernel PartialRefactor
//     reuses;
//
//   - SolveBlock / SolveBlockInto / SolveInto — allocation-free
//     triangular sweeps, over a whole multi-RHS Block panel or a single
//     vector, mirroring the SoALU solve surface; and
//
//   - LowerSolve / UpperTSolve (sparsevec.go) — reach-limited
//     half-solves over a BlockRefactorer's factors, for callers that
//     read only a few entries pᵀA⁻¹q.
//
// The factorization pivots on the statically chosen diagonal (no
// numerical pivoting), so a refactorization guards every pivot against
// the matrix magnitude and reports ErrSingular when one collapses —
// callers (the engine) fall back to the dense partial-pivot path, which
// keeps behavior compatible with the dense-only engine.

// pivotGuard is the relative threshold below which a statically chosen
// sparse pivot counts as unreliable: |U[i][i]| < pivotGuard·max|A| fails
// the refactorization so the caller can fall back to a dense
// partial-pivot factorization instead of dividing by a value that
// elimination may have reduced to noise.
const pivotGuard = 1e-8

// SparseSymbolic is the compiled symbolic analysis of one sparsity
// pattern: the row/column permutations, the static L+U fill pattern in
// row-major CSR form (permuted indexing, columns sorted per row), and
// the diagonal positions. It is immutable after AnalyzeSparse and safe
// to share across any number of SparseLU factorizations concurrently.
type SparseSymbolic struct {
	n       int
	rowperm []int // permuted row i holds original row rowperm[i]
	colperm []int // permuted col j holds original col colperm[j]
	invRow  []int // original row → permuted row
	invCol  []int // original col → permuted col

	rowStart []int // CSR offsets over the L+U pattern; len n+1
	cols     []int // sorted permuted column indices per row
	diagPos  []int // index into cols of the diagonal entry of each row

	annz int // structural nonzeros of A before fill-in

	// Supernodes (see supernodal.go): maximal runs of permuted rows with
	// nested U patterns and dense in-block L. Computed once by
	// AnalyzeSparse, immutable afterwards.
	snStart  []int32 // supernode s covers permuted rows [snStart[s], snStart[s+1]); len S+1
	maxPanel int     // widest supernode (≤ maxPanelWidth)

	// L's pattern by columns for sparse-vector solves (sparsevec.go),
	// built on first use.
	lowerOnce sync.Once
	lidx      *lowerIndex
}

// AnalyzeSparse runs the one-time symbolic analysis for an n×n pattern.
// rows[i] lists the structurally nonzero column indices of row i (any
// order, duplicates allowed, all in [0,n)). It returns an error when the
// pattern is structurally singular (no zero-free diagonal exists), which
// for a circuit matrix means the system itself is singular.
func AnalyzeSparse(n int, rows [][]int) (*SparseSymbolic, error) {
	if n <= 0 {
		return nil, fmt.Errorf("numeric: analyze %dx%d pattern: %w", n, n, ErrDimension)
	}
	if len(rows) != n {
		return nil, fmt.Errorf("numeric: analyze n=%d with %d pattern rows: %w", n, len(rows), ErrDimension)
	}
	// Deduplicated, sorted adjacency; validates indices.
	adj := make([][]int, n)
	annz := 0
	for i, r := range rows {
		seen := make([]bool, n)
		var out []int
		for _, j := range r {
			if j < 0 || j >= n {
				return nil, fmt.Errorf("numeric: pattern entry (%d,%d) out of range n=%d: %w", i, j, n, ErrDimension)
			}
			if !seen[j] {
				seen[j] = true
				out = append(out, j)
			}
		}
		sort.Ints(out)
		adj[i] = out
		annz += len(out)
	}

	match, err := maxTransversal(n, adj)
	if err != nil {
		return nil, err
	}
	// C = Pm·A: permuted row j is original row match[j], so C[j][j] is
	// structurally nonzero. Minimum degree runs on C's symmetrized
	// pattern and yields the symmetric permutation q.
	crows := make([][]int, n)
	for j := 0; j < n; j++ {
		crows[j] = adj[match[j]]
	}
	q := minDegreeOrder(n, crows)

	sym := &SparseSymbolic{
		n:       n,
		rowperm: make([]int, n),
		colperm: make([]int, n),
		invRow:  make([]int, n),
		invCol:  make([]int, n),
		annz:    annz,
	}
	for i := 0; i < n; i++ {
		sym.rowperm[i] = match[q[i]]
		sym.colperm[i] = q[i]
	}
	for i := 0; i < n; i++ {
		sym.invRow[sym.rowperm[i]] = i
		sym.invCol[sym.colperm[i]] = i
	}
	sym.symbolicFill(adj)
	sym.postorderReorder(adj)
	sym.buildSupernodes()
	return sym, nil
}

// postorderReorder relabels the elimination order by a postorder of the
// elimination tree (parent(i) = first off-diagonal column of U(i)) and
// recomputes the symbolic fill. For the (near-)symmetric patterns MNA
// produces this is the classic fill-preserving relabeling that makes
// the members of each fundamental supernode consecutive — without it,
// minimum degree interleaves structurally identical rows and supernode
// detection finds only singletons. Any relabeling is correct
// (the fill is recomputed); this one only changes which equivalent
// order we factor in.
func (s *SparseSymbolic) postorderReorder(adj [][]int) {
	n := s.n
	parent := make([]int, n)
	for i := 0; i < n; i++ {
		parent[i] = -1
		if s.diagPos[i]+1 < s.rowStart[i+1] {
			parent[i] = s.cols[s.diagPos[i]+1]
		}
	}
	// Children lists, ascending per parent (linked via next[] to avoid
	// per-node slices); roots are visited in ascending order too, so the
	// postorder is deterministic.
	firstKid := make([]int, n)
	next := make([]int, n)
	for i := range firstKid {
		firstKid[i] = -1
		next[i] = -1
	}
	for i := n - 1; i >= 0; i-- { // reverse scan keeps child lists ascending
		if p := parent[i]; p >= 0 {
			next[i] = firstKid[p]
			firstKid[p] = i
		}
	}
	post := make([]int, 0, n)
	stack := make([]int, 0, n)
	iter := make([]int, n) // next unvisited child while i is on the stack
	for r := 0; r < n; r++ {
		if parent[r] >= 0 {
			continue
		}
		stack = append(stack, r)
		iter[r] = firstKid[r]
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			if c := iter[v]; c >= 0 {
				iter[v] = next[c]
				stack = append(stack, c)
				iter[c] = firstKid[c]
				continue
			}
			post = append(post, v)
			stack = stack[:len(stack)-1]
		}
	}
	// Compose: new position p factors what was at old position post[p].
	nr := make([]int, n)
	nc := make([]int, n)
	for p, old := range post {
		nr[p] = s.rowperm[old]
		nc[p] = s.colperm[old]
	}
	s.rowperm, s.colperm = nr, nc
	for i := 0; i < n; i++ {
		s.invRow[s.rowperm[i]] = i
		s.invCol[s.colperm[i]] = i
	}
	s.cols = nil
	s.symbolicFill(adj)
}

// maxTransversal finds a perfect matching column→row over the pattern
// (Duff's algorithm: one augmenting-path search per column). match[j] is
// the original row placed at permuted-row position j.
func maxTransversal(n int, adj [][]int) ([]int, error) {
	// rowsOfCol: columns → rows whose pattern contains them.
	rowsOfCol := make([][]int, n)
	for i, r := range adj {
		for _, j := range r {
			rowsOfCol[j] = append(rowsOfCol[j], i)
		}
	}
	matchRow := make([]int, n) // row i → column it is matched to (-1 free)
	match := make([]int, n)    // column j → matched row (-1 free)
	for i := range matchRow {
		matchRow[i] = -1
		match[i] = -1
	}
	visited := make([]int, n) // stamp per augmenting search
	stamp := 0
	var augment func(j int) bool
	augment = func(j int) bool {
		for _, i := range rowsOfCol[j] {
			if visited[i] == stamp {
				continue
			}
			visited[i] = stamp
			if matchRow[i] < 0 || augment(matchRow[i]) {
				matchRow[i] = j
				match[j] = i
				return true
			}
		}
		return false
	}
	// Seed with the structural diagonal: MNA diagonals are the dominant
	// conductance anchors, and an arbitrary transversal that displaces
	// them leaves near-zero off-diagonal static pivots (2-D grid CUTs
	// exposed exactly that — every refactorization tripped the pivot
	// guard). Augmenting paths then complete the matching for the
	// zero-diagonal rows (voltage-source branch equations).
	for j := 0; j < n; j++ {
		row := adj[j]
		t := sort.SearchInts(row, j)
		if t < len(row) && row[t] == j {
			matchRow[j] = j
			match[j] = j
		}
	}
	for j := 0; j < n; j++ {
		if match[j] >= 0 {
			continue
		}
		stamp++
		if !augment(j) {
			return nil, fmt.Errorf("numeric: pattern is structurally singular (no zero-free diagonal through column %d): %w", j, ErrSingular)
		}
	}
	return match, nil
}

// minDegreeOrder computes a fill-reducing elimination order of the
// symmetrized pattern of crows (Markowitz/minimum-degree on an explicit
// elimination graph, smallest-index tie-break for determinism). Returned
// q maps permuted position → node, i.e. node q[k] is eliminated k-th.
func minDegreeOrder(n int, crows [][]int) []int {
	// Symmetrized adjacency as boolean-set slices.
	nbr := make([]map[int]struct{}, n)
	for i := range nbr {
		nbr[i] = make(map[int]struct{})
	}
	for i, r := range crows {
		for _, j := range r {
			if i != j {
				nbr[i][j] = struct{}{}
				nbr[j][i] = struct{}{}
			}
		}
	}
	q := make([]int, 0, n)
	eliminated := make([]bool, n)
	for len(q) < n {
		// Pick the live node with minimum degree; ties go to the
		// smallest index so the ordering is deterministic.
		best, bestDeg := -1, n+1
		for v := 0; v < n; v++ {
			if eliminated[v] {
				continue
			}
			if d := len(nbr[v]); d < bestDeg {
				best, bestDeg = v, d
			}
		}
		v := best
		eliminated[v] = true
		q = append(q, v)
		// Eliminate v: its live neighbors become a clique.
		var live []int
		for u := range nbr[v] {
			if !eliminated[u] {
				live = append(live, u)
				delete(nbr[u], v)
			}
		}
		sort.Ints(live)
		for ai, a := range live {
			for _, b := range live[ai+1:] {
				nbr[a][b] = struct{}{}
				nbr[b][a] = struct{}{}
			}
		}
	}
	return q
}

// symbolicFill computes the static L+U pattern of the permuted matrix by
// row-merge symbolic elimination: row i's final pattern is its A'
// pattern merged with the U patterns of every row k < i it eliminates
// against, discovered in ascending order through a small binary heap.
func (s *SparseSymbolic) symbolicFill(adj [][]int) {
	n := s.n
	s.rowStart = make([]int, n+1)
	s.diagPos = make([]int, n)
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	var heap intHeap
	var rowcols []int
	for i := 0; i < n; i++ {
		rowcols = rowcols[:0]
		heap = heap[:0]
		for _, origCol := range adj[s.rowperm[i]] {
			j := s.invCol[origCol]
			if mark[j] != i {
				mark[j] = i
				rowcols = append(rowcols, j)
				if j < i {
					heap.push(j)
				}
			}
		}
		for len(heap) > 0 {
			k := heap.pop()
			// Merge U(k): columns right of k's diagonal.
			for t := s.diagPos[k] + 1; t < s.rowStart[k+1]; t++ {
				j := s.cols[t]
				if mark[j] != i {
					mark[j] = i
					rowcols = append(rowcols, j)
					if j < i {
						heap.push(j)
					}
				}
			}
		}
		sort.Ints(rowcols)
		s.rowStart[i] = len(s.cols)
		base := len(s.cols)
		s.cols = append(s.cols, rowcols...)
		diag := -1
		for t, j := range rowcols {
			if j == i {
				diag = base + t
				break
			}
		}
		// The transversal guarantees a structural diagonal in every row.
		if diag < 0 {
			panic(fmt.Sprintf("numeric: symbolic fill lost diagonal of row %d", i))
		}
		s.diagPos[i] = diag
		s.rowStart[i+1] = len(s.cols)
	}
}

// intHeap is a tiny binary min-heap over ints (no container/heap
// interface boxing; the symbolic phase runs once per circuit).
type intHeap []int

func (h *intHeap) push(v int) {
	*h = append(*h, v)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p] <= a[i] {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *intHeap) pop() int {
	a := *h
	top := a[0]
	last := len(a) - 1
	a[0] = a[last]
	*h = a[:last]
	a = *h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(a) && a[l] < a[m] {
			m = l
		}
		if r < len(a) && a[r] < a[m] {
			m = r
		}
		if m == i {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return top
}

// N returns the order of the analyzed system.
func (s *SparseSymbolic) N() int { return s.n }

// NNZ returns the structural nonzero count of A (before fill-in).
func (s *SparseSymbolic) NNZ() int { return s.annz }

// LUNNZ returns the nonzero count of the factored L+U pattern,
// including fill-in.
func (s *SparseSymbolic) LUNNZ() int { return len(s.cols) }

// FillRatio returns LUNNZ / n² — the density of the factored pattern,
// the quantity the engine's dense-vs-sparse heuristic thresholds on.
func (s *SparseSymbolic) FillRatio() float64 {
	return float64(len(s.cols)) / (float64(s.n) * float64(s.n))
}

// ValueIndex returns the position, within value planes laid out along
// the compiled pattern, of original-coordinates entry (i, j), or -1 when
// the entry is not part of the pattern. Intended for compile-time stamp
// program construction (binary search per call).
func (s *SparseSymbolic) ValueIndex(i, j int) int {
	if i < 0 || i >= s.n || j < 0 || j >= s.n {
		return -1
	}
	pi, pj := s.invRow[i], s.invCol[j]
	lo, hi := s.rowStart[pi], s.rowStart[pi+1]
	row := s.cols[lo:hi]
	t := sort.SearchInts(row, pj)
	if t < len(row) && row[t] == pj {
		return lo + t
	}
	return -1
}

// SparseLU is a numeric factorization over a compiled SparseSymbolic
// pattern: caller-owned value planes aligned with the pattern, the
// inverse diagonal, and the scratch the refactor/solve sweeps reuse. A
// worker that refactors into the same SparseLU every frequency allocates
// nothing in steady state. The zero SparseLU is ready for RefactorReuse.
type SparseLU struct {
	sym      *SparseSymbolic
	vre, vim []float64 // factored values along sym.cols
	ire, iim []float64 // inverse diagonal per row
	wre, wim []float64 // dense scatter row for elimination
	pre, pim []float64 // permuted RHS panel scratch for solves

	guard2 float64 // squared pivot guard of the last refactorization

	markRow []int // partial-refactor affected-row stamps
	markGen int   // current stamp generation for markRow
}

// RefactorReuse numerically refactors the matrix whose values are given
// along sym's compiled pattern: are/aim[t] is the value of the permuted
// entry (row r, column sym.cols[t]) for t in [rowStart[r], rowStart[r+1]),
// with fill-in positions zero. (Engine callers build these planes once
// per frequency with a compiled stamp program; see ValueIndex.) The
// input planes are not modified. It returns ErrSingular (wrapped) when a
// statically chosen pivot is exactly zero or falls below pivotGuard
// relative to the largest input magnitude — the caller's cue to fall
// back to a dense partial-pivot factorization.
func (f *SparseLU) RefactorReuse(sym *SparseSymbolic, are, aim []float64) error {
	if err := f.prepRefactor(sym, are, aim); err != nil {
		return err
	}
	for i := 0; i < sym.n; i++ {
		if err := f.factorRowScalar(i, are, aim); err != nil {
			return err
		}
	}
	return nil
}

// prepRefactor validates shapes, sizes the factor storage and scratch,
// and derives the squared pivot guard from the input magnitude. It is
// the shared head of every refactorization flavor (scalar, frequency-
// blocked, partial). The value planes are NOT copied: the elimination
// scatters each row from the input planes and gathers the factored row
// into f.vre/f.vim, so untouched garbage in f.vre is never read.
func (f *SparseLU) prepRefactor(sym *SparseSymbolic, are, aim []float64) error {
	nnz := len(sym.cols)
	if len(are) != nnz || len(aim) != nnz {
		return fmt.Errorf("numeric: refactor with planes %d/%d, pattern has %d entries: %w", len(are), len(aim), nnz, ErrDimension)
	}
	n := sym.n
	if cap(f.vre) < nnz {
		f.vre = make([]float64, nnz)
		f.vim = make([]float64, nnz)
	}
	f.vre, f.vim = f.vre[:nnz], f.vim[:nnz]
	if cap(f.ire) < n {
		f.ire = make([]float64, n)
		f.iim = make([]float64, n)
		f.wre = make([]float64, n)
		f.wim = make([]float64, n)
	}
	f.ire, f.iim = f.ire[:n], f.iim[:n]
	f.wre, f.wim = f.wre[:n], f.wim[:n]
	f.sym = sym

	var amax2 float64
	for t := range are {
		if m := are[t]*are[t] + aim[t]*aim[t]; m > amax2 {
			amax2 = m
		}
	}
	if amax2 == 0 {
		return fmt.Errorf("numeric: refactor of all-zero matrix: %w", ErrSingular)
	}
	f.guard2 = pivotGuard * pivotGuard * amax2
	return nil
}

// factorRowScalar eliminates one permuted row through the classic
// up-looking scalar sweep: scatter the row's input values into the dense
// work row, eliminate against every factored row in its L pattern
// ascending, gather the finished row into the factor planes, and invert
// the pivot. RefactorBlock performs the same per-plane arithmetic in the
// same order.
func (f *SparseLU) factorRowScalar(i int, are, aim []float64) error {
	sym := f.sym
	vre, vim := f.vre, f.vim
	wre, wim := f.wre, f.wim
	cols, rs, dp := sym.cols, sym.rowStart, sym.diagPos
	lo, hi := rs[i], rs[i+1]
	// Scatter row i into the dense work row; all positions touched
	// by elimination lie in the row's static pattern, so the gather
	// below restores the work row to zero.
	for t := lo; t < hi; t++ {
		wre[cols[t]] = are[t]
		wim[cols[t]] = aim[t]
	}
	// Eliminate against every row k < i in the row's L pattern,
	// ascending (the pattern is sorted, so this is a linear walk).
	for t := lo; t < dp[i]; t++ {
		k := cols[t]
		ar, ai := wre[k], wim[k]
		if ar == 0 && ai == 0 {
			continue
		}
		// L[i][k] = w[k] / U[k][k], by reciprocal multiplication.
		mr := ar*f.ire[k] - ai*f.iim[k]
		mi := ar*f.iim[k] + ai*f.ire[k]
		wre[k], wim[k] = mr, mi
		for u := dp[k] + 1; u < rs[k+1]; u++ {
			j := cols[u]
			r, m := vre[u], vim[u]
			wre[j] -= mr*r - mi*m
			wim[j] -= mr*m + mi*r
		}
	}
	// Gather the finished row back and clear the work row.
	for t := lo; t < hi; t++ {
		vre[t] = wre[cols[t]]
		vim[t] = wim[cols[t]]
		wre[cols[t]] = 0
		wim[cols[t]] = 0
	}
	dr, di := vre[dp[i]], vim[dp[i]]
	d2 := dr*dr + di*di
	if d2 == 0 {
		return fmt.Errorf("numeric: zero pivot at row %d: %w", i, ErrSingular)
	}
	if d2 < f.guard2 {
		return fmt.Errorf("numeric: pivot at row %d below static-pivot guard: %w", i, ErrSingular)
	}
	f.ire[i], f.iim[i] = recip(dr, di)
	return nil
}

// growPanel sizes the permuted-panel scratch for nc right-hand sides.
func (f *SparseLU) growPanel(nc int) {
	need := f.sym.n * nc
	if cap(f.pre) < need {
		f.pre = make([]float64, need)
		f.pim = make([]float64, need)
	}
	f.pre, f.pim = f.pre[:need], f.pim[:need]
}

// SolveBlock solves A·X = B for every column of the block in place,
// mirroring SoALU.SolveBlock: rows of the block are system variables in
// the caller's (original) indexing; the permutations are applied
// internally. One forward and one back sweep over the static pattern
// covers all right-hand sides.
func (f *SparseLU) SolveBlock(blk *Block) error {
	if f.sym == nil {
		return fmt.Errorf("numeric: solve-block before refactorization: %w", ErrDimension)
	}
	n := f.sym.n
	if blk.rows != n {
		return fmt.Errorf("numeric: solve-block with %d rows, want %d: %w", blk.rows, n, ErrDimension)
	}
	nc := blk.cols
	if nc == 0 {
		return nil
	}
	f.growPanel(nc)
	bre, bim := blk.re, blk.im
	pre, pim := f.pre, f.pim
	sym := f.sym
	// Permute in: panel row i ← block row rowperm[i].
	for i := 0; i < n; i++ {
		src := sym.rowperm[i] * nc
		copy(pre[i*nc:i*nc+nc], bre[src:src+nc])
		copy(pim[i*nc:i*nc+nc], bim[src:src+nc])
	}
	f.sweepPanel(pre, pim, nc)
	// Permute out: block row colperm[j] ← panel row j.
	for j := 0; j < n; j++ {
		dst := sym.colperm[j] * nc
		copy(bre[dst:dst+nc], pre[j*nc:j*nc+nc])
		copy(bim[dst:dst+nc], pim[j*nc:j*nc+nc])
	}
	return nil
}

// SolveBlockInto is SolveBlock writing the solutions into dst, leaving
// rhs untouched. The shapes are validated before dst is modified.
func (f *SparseLU) SolveBlockInto(dst, rhs *Block) error {
	if dst == rhs {
		return f.SolveBlock(dst)
	}
	if f.sym == nil {
		return fmt.Errorf("numeric: solve-block before refactorization: %w", ErrDimension)
	}
	if rhs.rows != f.sym.n {
		return fmt.Errorf("numeric: solve-block with %d rows, want %d: %w", rhs.rows, f.sym.n, ErrDimension)
	}
	dst.CopyFrom(rhs)
	return f.SolveBlock(dst)
}

// sweepPanel runs the two triangular sweeps over the permuted panel
// (row-major, stride nc): L·Y = Pb forward with unit diagonal, then
// U·X = Y backward scaling each row by the inverse diagonal. The axpys
// touch contiguous float64 runs per plane, like SoALU.SolveBlock, but
// walk only the static sparse pattern.
func (f *SparseLU) sweepPanel(pre, pim []float64, nc int) {
	sym := f.sym
	n := sym.n
	vre, vim := f.vre, f.vim
	cols, rs, dp := sym.cols, sym.rowStart, sym.diagPos
	for i := 1; i < n; i++ {
		xr := pre[i*nc : i*nc+nc]
		xi := pim[i*nc : i*nc+nc]
		for t := rs[i]; t < dp[i]; t++ {
			k := cols[t]
			mr, mi := vre[t], vim[t]
			if mr == 0 && mi == 0 {
				continue
			}
			yr := pre[k*nc : k*nc+nc]
			yi := pim[k*nc : k*nc+nc]
			for c := range xr {
				r, m := yr[c], yi[c]
				xr[c] -= mr*r - mi*m
				xi[c] -= mr*m + mi*r
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		xr := pre[i*nc : i*nc+nc]
		xi := pim[i*nc : i*nc+nc]
		for t := dp[i] + 1; t < rs[i+1]; t++ {
			j := cols[t]
			mr, mi := vre[t], vim[t]
			if mr == 0 && mi == 0 {
				continue
			}
			yr := pre[j*nc : j*nc+nc]
			yi := pim[j*nc : j*nc+nc]
			for c := range xr {
				r, m := yr[c], yi[c]
				xr[c] -= mr*r - mi*m
				xi[c] -= mr*m + mi*r
			}
		}
		dr, di := f.ire[i], f.iim[i]
		for c := range xr {
			r, m := xr[c], xi[c]
			xr[c] = dr*r - di*m
			xi[c] = dr*m + di*r
		}
	}
}

// SolveInto solves A·x = b for a single complex right-hand side into the
// caller-provided dst of length N. dst and b may alias.
func (f *SparseLU) SolveInto(dst, b []complex128) error {
	if f.sym == nil {
		return fmt.Errorf("numeric: solve before refactorization: %w", ErrDimension)
	}
	n := f.sym.n
	if len(b) != n || len(dst) != n {
		return fmt.Errorf("numeric: solve-into rhs len %d, dst len %d, want %d: %w", len(b), len(dst), n, ErrDimension)
	}
	f.growPanel(1)
	pre, pim := f.pre, f.pim
	sym := f.sym
	for i := 0; i < n; i++ {
		v := b[sym.rowperm[i]]
		pre[i], pim[i] = real(v), imag(v)
	}
	f.sweepPanel(pre, pim, 1)
	for j := 0; j < n; j++ {
		dst[sym.colperm[j]] = complex(pre[j], pim[j])
	}
	return nil
}
