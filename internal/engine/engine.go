package engine

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"sync"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/fanout"
	"repro/internal/fault"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/rerr"
	"repro/internal/sliceutil"
)

// denGuard is the relative threshold below which a Sherman–Morrison
// denominator (rank 1) or a capacitance-matrix pivot (rank k) counts as
// ill-conditioned and the fault falls back to a full factorization.
const denGuard = 1e-3

// cancelGuard flags catastrophic cancellation in the rank-1 correction:
// when the corrected output is this much smaller than the golden output,
// the subtraction may have destroyed the trailing digits, so the fault is
// re-solved exactly.
const cancelGuard = 1e-6

// FactorPath selects which factorization the blocked path's per-frequency
// golden solve runs on.
type FactorPath int

const (
	// FactorAuto applies the size/fill heuristic decided at New (the
	// default): sparse for large, sparse circuits; dense otherwise.
	FactorAuto FactorPath = iota
	// FactorDense forces the dense SoA factorization.
	FactorDense
	// FactorSparse forces the sparse factorization on circuits whose
	// pattern compiled; circuits without a sparse pattern stay dense.
	FactorSparse
)

// sparseMinN / sparseMaxFill are the FactorAuto heuristic: below a few
// dozen unknowns the dense SoA kernel's tight loops win, and a pattern
// whose L+U fills in past a quarter of n² has lost the sparsity the
// ordering was meant to preserve. BENCH_sparse.json records the measured
// dense/sparse crossover these thresholds are set from.
const (
	sparseMinN    = 64
	sparseMaxFill = 0.25
)

// Engine evaluates |H(jω)| for batches of parametric faults against one
// compiled circuit template.
type Engine struct {
	tmpl      *Template
	output    string
	outIdx    int // -1 when the output is ground (H ≡ 0)
	amp       complex128
	ampAbs    float64   // |amp|, precomputed for the blocked path's magnitudes
	invAmpAbs float64   // 1/|amp|: the per-item divide becomes a multiply
	pool      sync.Pool // *workspace, shared across BatchResponses calls

	// factorPath is the golden-factorization override (FactorAuto by
	// default); sparseAuto is the heuristic verdict computed once at New.
	// See SetFactorPath.
	factorPath FactorPath
	sparseAuto bool

	// memo caches the flattened resolution of the last single-fault list
	// batched through this engine. Batch callers in tight loops (the GA
	// fitness path, per-candidate trajectory builds) pass the identical
	// fault universe on every call; a hit replaces the per-fault map
	// lookups and append churn with a handful of struct compares and flat
	// copies. Guarded by its own mutex — batches may run concurrently.
	memo resolutionMemo

	// stats counts the numeric paths batch solves take (see stats.go);
	// tracer, when installed via SetTracer, records per-frequency spans
	// on the fault-set batch path.
	stats  PathStats
	tracer *obs.Tracer
}

// resolutionMemo is the engine's cached fault resolution: the key is the
// fault list itself (value compare — fault.Fault is two words), the
// payload the flattened part groups batchInto would recompute.
type resolutionMemo struct {
	mu       sync.Mutex
	valid    bool
	faults   []fault.Fault
	off      []int
	partSlot []int
	partVal  []float64
	distinct []int
	zSlot    []int
}

// lookup copies the cached resolution into out if faults matches the
// cached list element-for-element. Equal component names are usually
// pointer-equal strings (the same universe slice every call), so the
// compare is two word compares per fault — far cheaper than the map
// lookups it replaces.
func (m *resolutionMemo) lookup(faults []fault.Fault, out *Batch) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.valid || len(m.faults) != len(faults) {
		return false
	}
	for i := range faults {
		if faults[i] != m.faults[i] {
			return false
		}
	}
	out.off = sliceutil.Grow(out.off, len(m.off))
	copy(out.off, m.off)
	out.partSlot = sliceutil.Grow(out.partSlot, len(m.partSlot))
	copy(out.partSlot, m.partSlot)
	out.partVal = sliceutil.Grow(out.partVal, len(m.partVal))
	copy(out.partVal, m.partVal)
	out.distinct = sliceutil.Grow(out.distinct, len(m.distinct))
	copy(out.distinct, m.distinct)
	out.zSlot = sliceutil.Grow(out.zSlot, len(m.zSlot))
	copy(out.zSlot, m.zSlot)
	return true
}

// store records out's freshly computed resolution under the faults key.
func (m *resolutionMemo) store(faults []fault.Fault, out *Batch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.faults = append(m.faults[:0], faults...)
	m.off = append(m.off[:0], out.off...)
	m.partSlot = append(m.partSlot[:0], out.partSlot...)
	m.partVal = append(m.partVal[:0], out.partVal...)
	m.distinct = append(m.distinct[:0], out.distinct...)
	m.zSlot = append(m.zSlot[:0], out.zSlot...)
	m.valid = true
}

// New compiles the circuit and binds the measurement: the named driving
// voltage source and the observed output node.
func New(c *circuit.Circuit, source, output string) (*Engine, error) {
	tmpl, err := Compile(c)
	if err != nil {
		return nil, err
	}
	e, ok := c.Element(source)
	if !ok {
		return nil, fmt.Errorf("engine: no source element %q", source)
	}
	vs, ok := e.(*circuit.VSource)
	if !ok {
		return nil, fmt.Errorf("engine: element %q is not a voltage source", source)
	}
	if vs.Amplitude == 0 {
		return nil, fmt.Errorf("engine: source %q has zero amplitude", source)
	}
	outIdx, err := tmpl.sys.NodeIndex(output)
	if err != nil {
		return nil, err
	}
	ampAbs := cmplx.Abs(vs.Amplitude)
	eng := &Engine{tmpl: tmpl, output: output, outIdx: outIdx, amp: vs.Amplitude, ampAbs: ampAbs, invAmpAbs: 1 / ampAbs}
	eng.sparseAuto = tmpl.sparse != nil && tmpl.n >= sparseMinN && tmpl.sparse.sym.FillRatio() <= sparseMaxFill
	// One pool serves every batch shape: a workspace's per-batch scratch
	// grows to the largest batch it has served and keeps that capacity,
	// so callers in tight loops (the GA's fitness evaluations) reuse it
	// instead of reallocating per call.
	eng.pool.New = func() any { return newWorkspace(tmpl) }
	return eng, nil
}

// SetFactorPath overrides the FactorAuto heuristic that picks between
// the dense and sparse golden factorization — for tests and benchmarks
// that pin one path. Must not be toggled concurrently with a running
// batch.
func (e *Engine) SetFactorPath(p FactorPath) { e.factorPath = p }

// sparseColumn reports whether the blocked column solver factors this
// engine's golden systems on the sparse path.
func (e *Engine) sparseColumn() bool {
	switch e.factorPath {
	case FactorDense:
		return false
	case FactorSparse:
		return e.tmpl.sparse != nil
	}
	return e.sparseAuto
}

// FactorPathName reports which golden factorization batch solves run on:
// "sparse" or "dense". Serving and benchmark envelopes record it so
// results say which path produced them.
func (e *Engine) FactorPathName() string {
	if e.sparseColumn() {
		return "sparse"
	}
	return "dense"
}

// Nodes returns the MNA system order (node voltages + branch currents).
func (e *Engine) Nodes() int { return e.tmpl.n }

// NNZ returns the structural nonzero count of the MNA pattern, or 0 when
// no sparse pattern compiled.
func (e *Engine) NNZ() int {
	if e.tmpl.sparse == nil {
		return 0
	}
	return e.tmpl.sparse.sym.NNZ()
}

// Template exposes the compiled stamp program.
func (e *Engine) Template() *Template { return e.tmpl }

// Output returns the observed node name.
func (e *Engine) Output() string { return e.output }

// checkOmega rejects the frequencies the per-point analysis path rejects.
func checkOmega(omega float64) error {
	if omega < 0 {
		return fmt.Errorf("engine: negative frequency %g", omega)
	}
	if math.IsNaN(omega) || math.IsInf(omega, 0) {
		return fmt.Errorf("engine: non-finite frequency %g", omega)
	}
	return nil
}

// resolve maps a fault onto its template slot and faulted value. Golden
// faults resolve to slot -1.
func (e *Engine) resolve(f fault.Fault) (int, float64, error) {
	if f.IsGolden() {
		return -1, 0, nil
	}
	if f.Scale() <= 0 {
		return 0, 0, fmt.Errorf("engine: fault %s: deviation %+.0f%% makes the value nonpositive", f.ID(), f.Deviation*100)
	}
	i, ok := e.tmpl.byName[f.Component]
	if !ok {
		return 0, 0, fmt.Errorf("engine: fault %s: %w: no parameter slot for element %q", f.ID(), rerr.ErrUnknownComponent, f.Component)
	}
	return i, e.tmpl.slots[i].value * f.Scale(), nil
}

// ResponseSet computes |H(jω)| for one fault set exactly: the template
// is patched at every part's slot and the full system factored — no
// Woodbury shortcut. This is the full-LU reference the batched rank-k
// path must agree with (≤ 1e-9 relative, pinned by tests on every
// built-in CUT), and the path Dictionary.ResponseSet memoizes behind.
func (e *Engine) ResponseSet(set fault.Set, omega float64) (float64, error) {
	if err := checkOmega(omega); err != nil {
		return 0, err
	}
	parts := set.Parts()
	if err := checkDistinct(parts); err != nil {
		return 0, fmt.Errorf("engine: fault %s: %w", set.ID(), err)
	}
	s := complex(0, omega)
	m := numeric.NewMatrix(e.tmpl.n, e.tmpl.n)
	e.tmpl.stampGolden(m, s)
	for _, p := range parts {
		si, fv, err := e.resolve(p)
		if err != nil {
			return 0, err
		}
		if si < 0 {
			continue
		}
		sl := &e.tmpl.slots[si]
		e.tmpl.addRank1(m, sl, sl.coeff(fv, s)-sl.coeff(sl.value, s))
	}
	lu, err := numeric.FactorInPlace(m)
	if err != nil {
		return 0, fmt.Errorf("engine: fault %s at ω=%g: %w", set.ID(), omega, err)
	}
	x, err := lu.Solve(e.tmpl.b)
	if err != nil {
		return 0, fmt.Errorf("engine: fault %s at ω=%g: %w", set.ID(), omega, err)
	}
	return cmplx.Abs(e.out(x) / e.amp), nil
}

// checkDistinct rejects fault sets touching one component twice: the
// deviations would silently compose multiplicatively, which no caller
// means.
func checkDistinct(parts []fault.Fault) error {
	for i := range parts {
		for j := i + 1; j < len(parts); j++ {
			if parts[i].Component == parts[j].Component {
				return fmt.Errorf("component %q faulted twice", parts[i].Component)
			}
		}
	}
	return nil
}

func (e *Engine) out(x []complex128) complex128 {
	if e.outIdx < 0 {
		return 0
	}
	return x[e.outIdx]
}

// Batch is a dense response table: Mags[i][j] is |H(jω_j)| under
// faults[i], and Golden[j] is the nominal |H(jω_j)|.
//
// A Batch owns its storage and can be reused across BatchResponsesInto
// calls: the magnitude rows share one flat backing array (row headers are
// resliced, not reallocated), and the per-call fault-resolution scratch
// lives alongside it. The zero Batch is ready to use. Rows returned from
// one fill are overwritten by the next, so callers that keep results
// across fills must copy them out.
type Batch struct {
	// Omegas is the frequency axis the table was evaluated on.
	Omegas []float64
	// Golden holds the nominal magnitudes per frequency.
	Golden []float64
	// Mags holds one row per requested fault, aligned with the input.
	Mags [][]float64

	// magsFlat is the contiguous backing store behind the Mags rows: row i
	// is magsFlat[i*len(Omegas) : (i+1)*len(Omegas)].
	magsFlat []float64
	// Per-call fault-resolution scratch, reused across fills. A batch
	// item is a fault *set* of k ≥ 0 (slot, value) parts: item i's parts
	// are partSlot/partVal[off[i]:off[i+1]] (0 parts ⇒ golden, 1 ⇒ the
	// rank-1 fast path, k ≥ 2 ⇒ the Woodbury path).
	off      []int     // item index → first part; len(items)+1 entries
	partSlot []int     // flattened part slots
	partVal  []float64 // flattened faulted values
	distinct []int     // distinct slots present, in first-seen order
	zSlot    []int     // template slot → z-solve position (-1 absent)

	// sv is the batch's sparse column kernel choice and, when it picks
	// the reach walks, their reach lists and cross-term table
	// (planSparseVector).
	sv svPlan
}

// workspace is one worker's scratch for the column solver (blocked.go).
// Everything lives here, so steady-state batches allocate nothing. The
// per-batch scratch — the block, the per-distinct-slot precomputes and
// the rank-k capacitance system — is sized by the batches the workspace
// serves (fitBatch), never by the template's slot count: a worker's
// memory is O(n·(1 + distinct slots) + k²) plus the factorization
// storage, and O(n + reach lengths + cross terms + k²) on the
// sparse-vector kernel.
type workspace struct {
	xf    []complex128 // exact-fallback solution
	delta []complex128 // per-part coefficient deltas of one item (k)
	cmat  []complex128 // k×k capacitance matrix (row-major)
	wvec  []complex128 // capacitance RHS, overwritten with the solution (k)

	// Dense SoA path: the golden matrix and both factorization targets as
	// split re/im planes with their LU headers. Sparse-capable engines
	// size them only if a column falls back to dense.
	ms   *numeric.SoAMatrix // golden A(s) planes, kept unfactored for fallbacks
	fs   *numeric.SoAMatrix // golden factorization storage
	f2s  *numeric.SoAMatrix // fallback factorization storage
	slu  numeric.SoALU      // golden SoA LU header, refactored in place
	slu2 numeric.SoALU      // fallback SoA LU header

	// blk is the per-frequency multi-RHS block of the block kernel
	// (blockReads): column 0 holds the golden solution x0, column 1+zi
	// the z = A⁻¹u of distinct slot zi. Sparse-vector batches never size
	// it.
	blk *numeric.Block

	// Sparse path (sized only when the template compiled a sparse
	// pattern). A worker claims FreqBlock consecutive frequency columns,
	// stamps their value planes and refactors all of them in one
	// interleaved walk (numeric.BlockRefactorer); prepareGroup pads a
	// short last group with copies of its last real column. gx is the
	// current column's plane in the group. spre2/spim2 and slus2 hold the
	// patched planes and factors of a partial-refactorization fallback.
	// colSparse records whether the current column's golden factorization
	// is sparse; denseStamped whether ms holds this column's dense golden
	// stamp (filled lazily, only if a dense fallback needs it).
	bref         numeric.BlockRefactorer
	slusBlk      [numeric.FreqBlock]numeric.SparseLU
	spreBlk      [numeric.FreqBlock][]float64
	spimBlk      [numeric.FreqBlock][]float64
	grpErr       [numeric.FreqBlock]error
	grpJ0        int // first batch column of the cached group; -1 on the dense path
	gx           int
	spre2, spim2 []float64
	slus2        numeric.SparseLU
	colSparse    bool
	denseStamped bool
	touched      []int // merged per-slot touched rows of one fallback item

	// Sparse-vector reads (sparsevec.go) of the cached group, one lane per
	// plane: x0[out], and per distinct slot vᵀx0, vᵀz and z[out], and the
	// batch's cross terms. svY/svW/svYb/svWo are interleaved dense
	// half-solve vectors (zero between uses), svYPack/svWPack the slots'
	// half-solves packed along their reaches for the cross terms. colSV
	// records whether the current column reads them.
	svX0                 [numeric.FreqBlock]complex128
	svVtx0, svVtz        [][numeric.FreqBlock]complex128
	svZout, svCross      [][numeric.FreqBlock]complex128
	svY, svW, svYb, svWo []float64
	svYPack, svWPack     []float64
	colSV                bool

	// Per-column per-distinct-slot precomputes (indexed by z position):
	// every deviation of a component shares its slot, so the slot-only
	// factors of the Sherman–Morrison correction are hoisted out of the
	// per-item loop — computed once per frequency, reused ~|deviations|
	// times.
	vtz    []complex128 // vᵀz for the slot's own z column
	vtx0   []complex128 // vᵀx0
	zoutc  []complex128 // z[outIdx]
	gcoeff []complex128 // golden coefficient sl.coeff(sl.value, s)

	// Column-local path counters (plain ints — the per-item loops must
	// not touch shared cache lines), flushed to Engine.stats once per
	// column by solveColumn.
	cDense         int64
	cSparse        int64
	cRank1         int64
	cRankK         int64
	cFallback      int64
	cSupernodal    int64
	cPartial       int64
	cPartialCols   int64
	cDenseExact    int64
	cDenseSingular int64
	cSparseVector  int64
}

func newWorkspace(t *Template) *workspace {
	n := t.n
	ws := &workspace{
		xf:    make([]complex128, n),
		blk:   numeric.NewBlock(0, 0), // solveColumn's Reset grows it
		grpJ0: -1,
	}
	if t.sparse != nil {
		lnnz := t.sparse.sym.LUNNZ()
		ws.spre2 = make([]float64, lnnz)
		ws.spim2 = make([]float64, lnnz)
		for x := 0; x < numeric.FreqBlock; x++ {
			ws.spreBlk[x] = make([]float64, lnnz)
			ws.spimBlk[x] = make([]float64, lnnz)
		}
	} else {
		// Dense-only engines factor n×n every column; sparse-capable
		// engines allocate the three dense matrices lazily, only if a
		// column actually falls back — a thousand-node grid would
		// otherwise pin hundreds of megabytes per worker it never uses.
		ws.ensureSoADense(n)
	}
	return ws
}

// fitBatch grows the per-batch scratch to out's batch, whose largest
// item has k parts, on an n-unknown template. Capacity stays in the
// pooled workspace, so a batch no larger than one already served
// allocates nothing.
func (ws *workspace) fitBatch(n, k int, out *Batch) {
	nd := len(out.distinct)
	if out.sv.on {
		ws.fitSparseVector(n, out)
	}
	ws.vtz = sliceutil.Grow(ws.vtz, nd)
	ws.vtx0 = sliceutil.Grow(ws.vtx0, nd)
	ws.zoutc = sliceutil.Grow(ws.zoutc, nd)
	ws.gcoeff = sliceutil.Grow(ws.gcoeff, nd)
	ws.delta = sliceutil.Grow(ws.delta, k)
	ws.cmat = sliceutil.Grow(ws.cmat, k*k)
	ws.wvec = sliceutil.Grow(ws.wvec, k)
}

// ensureSoADense sizes the dense SoA matrices on first use (a dense
// golden column or a dense exact fallback).
func (ws *workspace) ensureSoADense(n int) {
	if ws.ms == nil {
		ws.ms = numeric.NewSoAMatrix(n, n)
		ws.fs = numeric.NewSoAMatrix(n, n)
		ws.f2s = numeric.NewSoAMatrix(n, n)
	}
}

// BatchResponses fills the dense [fault][omega] response table. Per
// frequency the golden system is factored once; every fault is then
// solved by a rank-1 Sherman–Morrison update against that factorization,
// with a full refactorization fallback for ill-conditioned updates.
// Frequencies fan out over fanout.Run (workers ≤ 0 means one per CPU),
// each worker with its own pooled workspace grown to the batch's shape.
//
// The context is checked before every frequency group (one column on
// the dense path), so a canceled context stops the batch within one
// in-flight group per worker, and the call returns an error wrapping
// rerr.ErrCanceled unless every column was solved. A nil context is
// treated as context.Background(). The worker count and cancellation
// machinery never affect computed values: each column is solved
// independently in a self-contained workspace.
func (e *Engine) BatchResponses(ctx context.Context, faults []fault.Fault, omegas []float64, workers int) (*Batch, error) {
	return e.BatchResponsesProgress(ctx, faults, omegas, workers, nil)
}

// BatchResponsesProgress is BatchResponses with a per-frequency progress
// hook: progress(done, total) is called after each solved column. With
// multiple workers the hook runs concurrently from worker goroutines and
// must be safe for that; done is a cumulative count, not a column index.
func (e *Engine) BatchResponsesProgress(ctx context.Context, faults []fault.Fault, omegas []float64, workers int, progress func(done, total int)) (*Batch, error) {
	out := &Batch{}
	if err := e.batchInto(ctx, faults, nil, omegas, workers, progress, out); err != nil {
		return nil, err
	}
	return out, nil
}

// BatchResponsesInto is BatchResponses writing into a caller-owned Batch:
// out's storage is reused when large enough, so a Batch held across calls
// makes the steady state allocation-free. This is the GA fitness path,
// where every candidate test vector fills the same table shape thousands
// of times. Results are identical to BatchResponses.
func (e *Engine) BatchResponsesInto(ctx context.Context, faults []fault.Fault, omegas []float64, workers int, out *Batch) error {
	return e.batchInto(ctx, faults, nil, omegas, workers, nil, out)
}

// BatchResponsesSets is the rank-k generalization of BatchResponses: row
// i of the table holds |H(jω)| under every part of sets[i] applied
// simultaneously. Per frequency the golden system is still factored
// once and one z-solve performed per distinct slot; a k-part item then
// costs one k×k Sherman–Morrison–Woodbury capacitance solve against
// those shared vectors, with the same full-refactorization fallback the
// rank-1 path uses when the update is ill-conditioned. Single-part items
// take the rank-1 fast path unchanged, so mixing single and multiple
// faults in one batch costs nothing extra. Concurrency and cancellation
// semantics match BatchResponses.
func (e *Engine) BatchResponsesSets(ctx context.Context, sets []fault.Set, omegas []float64, workers int) (*Batch, error) {
	out := &Batch{}
	if err := e.batchInto(ctx, nil, sets, omegas, workers, nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// BatchResponsesSetsInto is BatchResponsesSets writing into a
// caller-owned Batch (see BatchResponsesInto for the reuse contract).
func (e *Engine) BatchResponsesSetsInto(ctx context.Context, sets []fault.Set, omegas []float64, workers int, out *Batch) error {
	return e.batchInto(ctx, nil, sets, omegas, workers, nil, out)
}

// itemID names batch item i for error reporting; exactly one of faults
// and sets is non-nil.
func itemID(faults []fault.Fault, sets []fault.Set, i int) string {
	if sets != nil {
		return sets[i].ID()
	}
	return faults[i].ID()
}

// resolveBatch fills out's flattened fault-resolution scratch for the
// batch items: part groups (off/partSlot/partVal) and the distinct-slot
// index (distinct/zSlot). The single-fault form presizes its append
// targets so a cold Batch takes one allocation per array instead of
// doubling growth churn.
func (e *Engine) resolveBatch(faults []fault.Fault, sets []fault.Set, out *Batch) error {
	nitems := len(faults)
	if sets != nil {
		nitems = len(sets)
	}
	out.off = sliceutil.Grow(out.off, nitems+1)
	out.off[0] = 0
	if sets == nil {
		out.partSlot = sliceutil.Grow(out.partSlot, len(faults))[:0]
		out.partVal = sliceutil.Grow(out.partVal, len(faults))[:0]
		for i, f := range faults {
			si, fv, err := e.resolve(f)
			if err != nil {
				return err
			}
			if si >= 0 {
				out.partSlot = append(out.partSlot, si)
				out.partVal = append(out.partVal, fv)
			}
			out.off[i+1] = len(out.partSlot)
		}
	} else {
		out.partSlot = out.partSlot[:0]
		out.partVal = out.partVal[:0]
		for i, set := range sets {
			parts := set.Parts()
			if err := checkDistinct(parts); err != nil {
				return fmt.Errorf("engine: fault %s: %w", set.ID(), err)
			}
			for _, p := range parts {
				si, fv, err := e.resolve(p)
				if err != nil {
					return err
				}
				if si >= 0 {
					out.partSlot = append(out.partSlot, si)
					out.partVal = append(out.partVal, fv)
				}
			}
			out.off[i+1] = len(out.partSlot)
		}
	}
	// Distinct slots present in the batch get one z-solve per frequency.
	out.zSlot = sliceutil.Grow(out.zSlot, len(e.tmpl.slots))
	for i := range out.zSlot {
		out.zSlot[i] = -1
	}
	out.distinct = sliceutil.Grow(out.distinct, len(e.tmpl.slots))[:0]
	for _, si := range out.partSlot {
		if out.zSlot[si] < 0 {
			out.zSlot[si] = len(out.distinct)
			out.distinct = append(out.distinct, si)
		}
	}
	return nil
}

// batchInto fills out with the dense response table, reusing its
// storage. Exactly one of faults and sets is non-nil; the single-fault
// form resolves without touching the Set interface (no boxing), which
// keeps the GA fitness path allocation-free.
func (e *Engine) batchInto(ctx context.Context, faults []fault.Fault, sets []fault.Set, omegas []float64, workers int, progress func(done, total int), out *Batch) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(omegas) == 0 {
		return fmt.Errorf("engine: empty frequency list")
	}
	for _, w := range omegas {
		if err := checkOmega(w); err != nil {
			return err
		}
	}
	nitems := len(faults)
	if sets != nil {
		nitems = len(sets)
	}
	// Resolve every item up front into flattened (slot, value) part
	// groups: item i owns parts off[i]..off[i+1]. Single-fault lists hit
	// the engine's resolution memo when they repeat — the GA fitness loop
	// and per-candidate trajectory builds pass the identical universe on
	// every call.
	memoHit := false
	if sets == nil {
		memoHit = e.memo.lookup(faults, out)
		if memoHit {
			e.stats.MemoHits.Add(1)
		} else {
			e.stats.MemoMisses.Add(1)
		}
	}
	if !memoHit {
		if err := e.resolveBatch(faults, sets, out); err != nil {
			return err
		}
		if sets == nil {
			e.memo.store(faults, out)
		}
	}

	out.Omegas = append(out.Omegas[:0], omegas...)
	out.Golden = sliceutil.Grow(out.Golden, len(omegas))
	nw := len(omegas)
	out.magsFlat = sliceutil.Grow(out.magsFlat, nitems*nw)
	out.Mags = sliceutil.Grow(out.Mags, nitems)
	for i := range out.Mags {
		out.Mags[i] = out.magsFlat[i*nw : (i+1)*nw : (i+1)*nw]
	}

	// The largest part count sizes every worker's capacitance scratch. A
	// single-fault item has at most one part, so only fault-set batches
	// (never memoized) need the scan.
	maxParts := min(1, len(out.partSlot))
	if sets != nil {
		for i := 0; i < nitems; i++ {
			if k := out.off[i+1] - out.off[i]; k > maxParts {
				maxParts = k
			}
		}
	}

	// Workers claim whole frequency groups (FreqBlock consecutive
	// columns refactored in one blocked walk on the sparse path, single
	// columns otherwise), so the useful worker count is the group count.
	// Group boundaries depend only on the omega list, never on the worker
	// count, which keeps results bit-identical at every worker count.
	unit := 1
	if e.sparseColumn() {
		unit = numeric.FreqBlock
	}
	e.planSparseVector(out, nitems)
	groups := (len(omegas) + unit - 1) / unit
	workers = fanout.Workers(groups, workers)

	// The progress closure (and the counter it captures) is only built
	// when a hook is set: the GA fitness path runs without one, and the
	// escape to the heap would cost two allocations per call.
	total := len(omegas)
	var report func()
	if progress != nil {
		var done atomic.Int64
		report = func() { progress(int(done.Add(1)), total) }
	}

	if workers == 1 {
		// Inline path, not fanout.Run: a closure passed to Run escapes
		// to the heap, and the GA fitness path (a candidate is k=2
		// frequencies on one worker) must not allocate.
		ws := e.pool.Get().(*workspace)
		defer e.pool.Put(ws)
		ws.fitBatch(e.tmpl.n, maxParts, out)
		for g := 0; g < len(omegas); g += unit {
			hi := g + unit
			if hi > len(omegas) {
				hi = len(omegas)
			}
			e.prepareGroup(ws, omegas, g, hi, out)
			for j := g; j < hi; j++ {
				if err := ctx.Err(); err != nil {
					return rerr.Canceled(err)
				}
				if err := e.solveColumn(ws, omegas[j], faults, sets, out, j); err != nil {
					return err
				}
				if report != nil {
					report()
				}
			}
		}
		return nil
	}
	return e.batchParallel(ctx, faults, sets, omegas, workers, unit, maxParts, report, out)
}

// batchParallel is batchInto's worker-pool branch: frequency groups run
// on fanout.Run. Each worker takes its workspace from the pool on its own
// goroutine at its first group, and every workspace goes back to the pool
// at the end. It lives in its own function so the closure captures this
// frame's variables, not batchInto's: escape analysis is
// flow-insensitive, and keeping the captures here is what lets the
// single-worker GA path run without ctx or progress state escaping to
// the heap.
func (e *Engine) batchParallel(ctx context.Context, faults []fault.Fault, sets []fault.Set, omegas []float64, workers, unit, maxParts int, report func(), out *Batch) error {
	wss := make([]*workspace, workers)
	defer func() {
		for _, ws := range wss {
			if ws != nil {
				e.pool.Put(ws)
			}
		}
	}()
	groups := (len(omegas) + unit - 1) / unit
	return fanout.Run(ctx, groups, workers, func(w, gi int) error {
		ws := wss[w]
		if ws == nil {
			ws = e.pool.Get().(*workspace)
			ws.fitBatch(e.tmpl.n, maxParts, out)
			wss[w] = ws
		}
		g := gi * unit
		hi := min(g+unit, len(omegas))
		e.prepareGroup(ws, omegas, g, hi, out)
		for j := g; j < hi; j++ {
			if err := e.solveColumn(ws, omegas[j], faults, sets, out, j); err != nil {
				return err
			}
			if report != nil {
				report()
			}
		}
		return nil
	})
}
