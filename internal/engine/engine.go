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
	outIdx    int       // -1 when the output is ground (H ≡ 0)
	ampAbs    float64   // |source amplitude|, the magnitudes' normalization
	invAmpAbs float64   // 1/ampAbs: the per-item divide becomes a multiply
	pool      sync.Pool // *workspace, shared across SolveInto calls

	// factorPath is the golden-factorization override (FactorAuto by
	// default); sparseAuto is the heuristic verdict computed once at New.
	// See SetFactorPath.
	factorPath FactorPath
	sparseAuto bool

	// stats counts the numeric paths batch solves take (see stats.go);
	// tracer, when installed via SetTracer, records per-frequency spans
	// of fault-set plans.
	stats  PathStats
	tracer *obs.Tracer
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
	eng := &Engine{tmpl: tmpl, output: output, outIdx: outIdx, ampAbs: ampAbs, invAmpAbs: 1 / ampAbs}
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

// Batch is a dense response table: Mags[i][j] is |H(jω_j)| under item
// i of the solved plan, and Golden[j] is the nominal |H(jω_j)|.
//
// A Batch owns its storage and can be reused across SolveInto calls:
// the magnitude rows share one flat backing array (row headers are
// resliced, not reallocated), and the per-solve sparse-vector plan lives
// alongside it. The zero Batch is ready to use. Rows returned from one
// fill are overwritten by the next, so callers that keep results across
// fills must copy them out.
type Batch struct {
	// Omegas is the frequency axis the table was evaluated on.
	Omegas []float64
	// Golden holds the nominal magnitudes per frequency.
	Golden []float64
	// Mags holds one row per plan item, aligned with the resolved items.
	Mags [][]float64

	// magsFlat is the contiguous backing store behind the Mags rows: row i
	// is magsFlat[i*len(Omegas) : (i+1)*len(Omegas)].
	magsFlat []float64

	// sv is the solve's sparse column kernel choice and, when it picks
	// the reach walks, their reach lists and cross-term table
	// (planSparseVector). It depends on the factor path as well as the
	// plan, and is written on every solve, so it lives here and not in
	// the shared, read-only Plan.
	sv svPlan
}

// Plan is a list of fault items resolved onto an engine's template:
// item i is a fault set of k ≥ 0 (slot, value) parts,
// partSlot/partVal[off[i]:off[i+1]] (0 parts ⇒ golden, 1 ⇒ the rank-1
// fast path, k ≥ 2 ⇒ the Woodbury path), and every distinct slot gets
// one z-solve per frequency. Resolve fills a plan whose distinct slots
// are the ones its items touch, once; SolveInto then solves it at any
// number of frequency vectors. The one other constructor,
// conductancePlan, builds OutputNoisePSD's plan: no items, and every
// conductance slot distinct. A resolved plan is read-only, so
// concurrent solves may share it. The zero Plan is ready to resolve
// into, and resolving again reuses its storage.
type Plan struct {
	eng      *Engine          // the engine resolved for; nil until Resolve succeeds
	off      []int            // item index → first part; len(items)+1 entries
	partSlot []int            // flattened part slots
	partVal  []float64        // flattened faulted values
	distinct []int            // distinct slots present, in first-seen order
	zSlot    []int            // template slot → z-solve position (-1 absent)
	maxParts int              // the largest item's part count
	spans    bool             // record engine.column spans (see SetTracer)
	id       func(int) string // item i's ID, for error messages
}

// workspace is one worker's scratch for the column solver (blocked.go).
// Everything lives here, so steady-state batches allocate nothing. The
// per-batch scratch — the block, the per-distinct-slot precomputes and
// the rank-k capacitance system — is sized by the batches the workspace
// serves (fitBatch), never by the template's slot count: a worker's
// memory is O(n·(1 + distinct slots) + k²) plus the factorization
// storage, and O(n + reach lengths + cross terms + k²) on the
// sparse-vector kernel. On the sparse path the factorization storage is
// one copy of a group's golden systems, 8 float64 per factor entry (the
// blocked refactorer's lanes, stamped and factored in place), where a
// stamped copy, the lanes and four de-interleaved SparseLUs once took
// 26. Block-side batches add 2 per entry for each plane they copy out,
// and exact fallbacks 4 for their patched planes and factors. On the
// dense path it is two n×n matrices: the golden system, stamped and
// factored in place, and an exact fallback's patched system.
type workspace struct {
	xf    []complex128 // exact-fallback solution
	delta []complex128 // per-part coefficient deltas of one item (k)
	cmat  []complex128 // k×k capacitance matrix (row-major)
	wvec  []complex128 // capacitance RHS, overwritten with the solution (k)

	// Dense SoA path: both factorization targets as split re/im planes
	// with their LU headers. Each is stamped and factored in place.
	// Sparse-capable engines size them only if a column falls back to
	// dense.
	fs   *numeric.SoAMatrix // golden factorization storage
	f2s  *numeric.SoAMatrix // fallback factorization storage
	slu  numeric.SoALU      // golden SoA LU header, refactored in place
	slu2 numeric.SoALU      // fallback SoA LU header

	// blk is the per-frequency multi-RHS block of the block kernel
	// (blockReads): column 0 holds the golden solution x0, column 1+zi
	// the z = A⁻¹u of distinct slot zi. Sparse-vector batches never size
	// it.
	blk *numeric.Block

	// Sparse path (sized on first use). A worker claims FreqBlock
	// consecutive frequency columns, stamps them into the lanes of bref
	// and refactors all of them there in place, in one interleaved walk;
	// prepareGroup stamps a short last group's unused lanes at its last
	// real column's ω. gx is the current column's plane in the group.
	// slusBlk[gx] receives that plane's factors from the lanes on the
	// column's first read as a SparseLU (groupLU; grpCopied marks it).
	// spre2/spim2 and slus2 hold the patched planes and factors of a
	// partial-refactorization fallback. colSparse records whether the
	// current column's golden factorization is sparse.
	bref         numeric.BlockRefactorer
	slusBlk      [numeric.FreqBlock]numeric.SparseLU
	grpErr       [numeric.FreqBlock]error
	grpCopied    [numeric.FreqBlock]bool
	grpJ0        int // first batch column of the cached group; -1 on the dense path
	gx           int
	spre2, spim2 []float64
	slus2        numeric.SparseLU
	colSparse    bool
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
	if t.sparse == nil {
		// Dense-only engines factor n×n every column; sparse-capable
		// engines allocate the two dense matrices lazily, only if a
		// column actually falls back — a thousand-node grid would
		// otherwise pin hundreds of megabytes per worker it never uses.
		ws.ensureSoADense(n)
	}
	return ws
}

// fitBatch grows the per-batch scratch to plan p, solved into out, on
// an n-unknown template. Capacity stays in the pooled workspace, so a
// plan no larger than one already served allocates nothing.
func (ws *workspace) fitBatch(n int, p *Plan, out *Batch) {
	nd := len(p.distinct)
	if out.sv.on {
		ws.fitSparseVector(n, nd, out)
	}
	k := p.maxParts
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
	if ws.fs == nil {
		ws.fs = numeric.NewSoAMatrix(n, n)
		ws.f2s = numeric.NewSoAMatrix(n, n)
	}
}

// Resolve resolves items — single faults or fault sets, golden
// included — onto e's template into p, reusing p's storage. Each item's
// parts are checked (a known component, a positive faulted value, no
// component twice) and mapped to template slots once, so the solves
// that follow do no lookups. A plan resolved from a []fault.Fault
// records no engine.column spans (see SetTracer). Errors name a failing
// item by items[i].ID(), so items must stay unchanged while p is in use.
func Resolve[S fault.Set](e *Engine, items []S, p *Plan) error {
	p.eng = nil
	p.off = sliceutil.Grow(p.off, len(items)+1)
	p.off[0] = 0
	p.partSlot = sliceutil.Grow(p.partSlot, len(items))[:0]
	p.partVal = sliceutil.Grow(p.partVal, len(items))[:0]
	p.maxParts = 0
	// A single fault is its only part. Reading it into one, not through
	// Fault.Parts (a fresh slice per call), keeps single-fault items
	// allocation-free; a golden fault resolves to no slot, as its empty
	// Parts would.
	var one [1]fault.Fault
	for i, item := range items {
		var parts []fault.Fault
		if f, ok := any(item).(fault.Fault); ok {
			one[0] = f
			parts = one[:]
		} else {
			parts = item.Parts()
		}
		if err := checkDistinct(parts); err != nil {
			return fmt.Errorf("engine: fault %s: %w", item.ID(), err)
		}
		for _, part := range parts {
			si, fv, err := e.resolve(part)
			if err != nil {
				return err
			}
			if si >= 0 {
				p.partSlot = append(p.partSlot, si)
				p.partVal = append(p.partVal, fv)
			}
		}
		p.off[i+1] = len(p.partSlot)
		p.maxParts = max(p.maxParts, p.off[i+1]-p.off[i])
	}
	// Distinct slots present in the plan get one z-solve per frequency.
	p.zSlot = sliceutil.Grow(p.zSlot, len(e.tmpl.slots))
	for i := range p.zSlot {
		p.zSlot[i] = -1
	}
	p.distinct = sliceutil.Grow(p.distinct, len(e.tmpl.slots))[:0]
	for _, si := range p.partSlot {
		if p.zSlot[si] < 0 {
			p.zSlot[si] = len(p.distinct)
			p.distinct = append(p.distinct, si)
		}
	}
	_, singles := any(items).([]fault.Fault)
	p.spans = !singles
	p.id = func(i int) string { return items[i].ID() }
	p.eng = e
	return nil
}

// conductancePlan fills p with OutputNoisePSD's plan: no items, and
// every conductance slot distinct, in template order. Solving its
// columns' reads (factorColumn) leaves z_r[out] of each resistor r in
// the workspace.
func (e *Engine) conductancePlan(p *Plan) {
	t := e.tmpl
	*p = Plan{eng: e, off: []int{0}, zSlot: make([]int, len(t.slots))}
	for si := range t.slots {
		p.zSlot[si] = -1
		if t.slots[si].kind == coeffConductance {
			p.zSlot[si] = len(p.distinct)
			p.distinct = append(p.distinct, si)
		}
	}
}

// SolveInto fills out with plan p's response table at omegas, reusing
// out's storage. Per frequency the golden system is factored once and
// one z-solve performed per distinct slot; a single-fault item is then
// solved by a rank-1 Sherman–Morrison update against that
// factorization, and a k-part item by one k×k Sherman–Morrison–Woodbury
// capacitance solve against the shared z vectors, with a full
// refactorization fallback for ill-conditioned updates. Frequencies fan
// out over fanout.Run (workers ≤ 0 means one per CPU), each worker with
// its own pooled workspace grown to the plan's shape; a Batch held
// across calls makes the steady state allocation-free, the GA fitness
// path's property.
//
// progress, when non-nil, is called as progress(done, total) after each
// solved column; with multiple workers it runs concurrently from worker
// goroutines and must be safe for that, and done is a cumulative count,
// not a column index. The context is checked before every frequency
// group (one column on the dense path), so a canceled context stops the
// solve within one in-flight group per worker, and the call returns an
// error wrapping rerr.ErrCanceled unless every column was solved. A nil
// context is treated as context.Background(). The worker count and
// cancellation machinery never affect computed values: each column is
// solved independently in a self-contained workspace.
func (e *Engine) SolveInto(ctx context.Context, p *Plan, omegas []float64, workers int, progress func(done, total int), out *Batch) error {
	if p.eng != e {
		return fmt.Errorf("engine: plan not resolved for this engine")
	}
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
	nitems := len(p.off) - 1
	out.Omegas = append(out.Omegas[:0], omegas...)
	out.Golden = sliceutil.Grow(out.Golden, len(omegas))
	nw := len(omegas)
	out.magsFlat = sliceutil.Grow(out.magsFlat, nitems*nw)
	out.Mags = sliceutil.Grow(out.Mags, nitems)
	for i := range out.Mags {
		out.Mags[i] = out.magsFlat[i*nw : (i+1)*nw : (i+1)*nw]
	}

	// Workers claim whole frequency groups (FreqBlock consecutive
	// columns refactored in one blocked walk on the sparse path, single
	// columns otherwise), so the useful worker count is the group count.
	// Group boundaries depend only on the omega list, never on the worker
	// count, which keeps results bit-identical at every worker count.
	unit := e.groupSize()
	e.planSparseVector(p, out)
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
		return e.solveSerial(ctx, p, omegas, out, func(ws *workspace, j int) error {
			if err := e.solveColumn(ws, omegas[j], p, out, j); err != nil {
				return err
			}
			if report != nil {
				report()
			}
			return nil
		})
	}
	return e.solveParallel(ctx, p, omegas, workers, unit, report, out)
}

// groupSize is the number of consecutive frequency columns a worker
// claims at once: FreqBlock columns refactored in one blocked walk on
// the sparse path, single columns on the dense one.
func (e *Engine) groupSize() int {
	if e.sparseColumn() {
		return numeric.FreqBlock
	}
	return 1
}

// solveSerial is the single-worker column driver, shared by SolveInto
// and OutputNoisePSD: on one pooled workspace grown to plan p, it
// refactors each frequency group (prepareGroup) and calls col(ws, j) for
// the group's columns in order, checking ctx before every column. It
// runs inline, not on fanout.Run, whose closure escapes to the heap: col
// does not escape, so the caller's closure stays on its stack and the GA
// fitness path (a candidate is k=2 frequencies on one worker) allocates
// nothing.
func (e *Engine) solveSerial(ctx context.Context, p *Plan, omegas []float64, out *Batch, col func(ws *workspace, j int) error) error {
	ws := e.pool.Get().(*workspace)
	defer e.pool.Put(ws)
	ws.fitBatch(e.tmpl.n, p, out)
	unit := e.groupSize()
	for g := 0; g < len(omegas); g += unit {
		hi := min(g+unit, len(omegas))
		e.prepareGroup(ws, omegas, g, hi, p, out)
		for j := g; j < hi; j++ {
			if err := ctx.Err(); err != nil {
				return rerr.Canceled(err)
			}
			if err := col(ws, j); err != nil {
				return err
			}
		}
	}
	return nil
}

// batch resolves items into a call-local plan and solves it into out:
// the body of the one-shot entry points below.
func batch[S fault.Set](ctx context.Context, e *Engine, items []S, omegas []float64, workers int, out *Batch) (*Batch, error) {
	var p Plan
	if err := Resolve(e, items, &p); err != nil {
		return nil, err
	}
	if err := e.SolveInto(ctx, &p, omegas, workers, nil, out); err != nil {
		return nil, err
	}
	return out, nil
}

// BatchResponses is Resolve plus SolveInto for a single-fault list,
// into a fresh Batch. Callers that solve one list repeatedly hold a
// Plan instead of resolving on every call.
func (e *Engine) BatchResponses(ctx context.Context, faults []fault.Fault, omegas []float64, workers int) (*Batch, error) {
	return batch(ctx, e, faults, omegas, workers, &Batch{})
}

// BatchResponsesInto is BatchResponses writing into a caller-owned
// Batch (see SolveInto for the reuse contract).
func (e *Engine) BatchResponsesInto(ctx context.Context, faults []fault.Fault, omegas []float64, workers int, out *Batch) error {
	_, err := batch(ctx, e, faults, omegas, workers, out)
	return err
}

// BatchResponsesSets is BatchResponses over fault sets: row i holds
// |H(jω)| under every part of sets[i] applied simultaneously.
func (e *Engine) BatchResponsesSets(ctx context.Context, sets []fault.Set, omegas []float64, workers int) (*Batch, error) {
	return batch(ctx, e, sets, omegas, workers, &Batch{})
}

// solveParallel is SolveInto's worker-pool branch: frequency groups
// run on fanout.Run. Each worker takes its workspace from the pool on
// its own goroutine at its first group, and every workspace goes back to
// the pool at the end. It lives in its own function so the closure
// captures this frame's variables, not SolveInto's: escape analysis is
// flow-insensitive, and keeping the captures here is what lets the
// single-worker GA path run without ctx or progress state escaping to
// the heap.
func (e *Engine) solveParallel(ctx context.Context, p *Plan, omegas []float64, workers, unit int, report func(), out *Batch) error {
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
			ws.fitBatch(e.tmpl.n, p, out)
			wss[w] = ws
		}
		g := gi * unit
		hi := min(g+unit, len(omegas))
		e.prepareGroup(ws, omegas, g, hi, p, out)
		for j := g; j < hi; j++ {
			if err := e.solveColumn(ws, omegas[j], p, out, j); err != nil {
				return err
			}
			if report != nil {
				report()
			}
		}
		return nil
	})
}
