// Package dictionary implements the paper's fault-simulation (FS) step:
// from the golden circuit it derives the faulty AC magnitude responses of
// every fault in the universe and serves them on demand.
//
// Responses are computed by the batched solver in internal/engine: the
// golden circuit is compiled once into a stamp template, a fault is a
// rank-1 coefficient patch (a k-component multiple fault a rank-k one),
// and whole (fault × frequency) grids are filled with one golden
// factorization per frequency. The GA probes
// responses at arbitrary candidate frequencies, so the dictionary
// evaluates lazily instead of precomputing a fixed grid; a fixed grid can
// still be precomputed with BuildGrid for reporting (Figure 1) or export.
//
// What the dictionary stores is the paper's fault dictionary, a table:
// each BuildGrid or BuildGridSets keeps the engine's (fault set × ω)
// response table as it came back, with one row index by fault-set ID.
// The grids are all it stores. A query no grid answers is solved and
// returned, not kept.
package dictionary

import (
	"context"
	"encoding/json"
	"fmt"
	"math/cmplx"
	"slices"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/sliceutil"
)

// MemoLimit bounds the stored responses, the cells of the grids. A grid
// that does not fit keeps the prefix of its cells that does, golden row
// first and then rows in input order; once the limit is reached, further
// grids are computed but not stored. Every cell of a grid counts, even
// one whose point an older grid already holds. Grid builds (tens of
// faults × hundreds of frequencies) fit comfortably; what the bound
// prevents is a long-running process that builds grid after grid
// growing the dictionary without limit.
const MemoLimit = 1 << 16

// Dictionary serves golden and faulty magnitude responses.
type Dictionary struct {
	golden   *circuit.Circuit
	source   string
	output   string
	universe *fault.Universe
	faults   []fault.Fault // universe.Faults(), computed once; treated immutable
	eng      *engine.Engine

	// plan returns d.faults resolved onto eng, once, on first use; the
	// GA's fitness evaluations and BuildGrid share it read-only.
	plan func() (*engine.Plan, error)

	mu    sync.Mutex
	grids []*grid // BuildGrid/BuildGridSets tables, oldest first
	cells int     // cells stored in grids (≤ MemoLimit)

	// refOmegas is the test vector CircuitSignature was last called at,
	// and refGolden the golden circuit's analysis.AC magnitudes there:
	// callers sweep many variants at one vector, and one row is all
	// that is kept.
	refOmegas, refGolden []float64
}

// grid is one BuildGrid/BuildGridSets result, kept as the engine's
// table: cell (r, j) is row r's response at omegas[j], and row -1 is the
// golden row. Cells are ordered golden row first, then rows in input
// order; the first kept of them are stored (see MemoLimit).
type grid struct {
	omegas []float64
	golden []float64
	mags   [][]float64
	// parts holds the rows' parts flat: row r's are parts[off[r]:off[r+1]],
	// or parts[r:r+1] when off is nil (one single fault per row).
	parts []fault.Fault
	off   []int
	rows  map[string]int  // row ID → last row with that ID
	cols  map[float64]int // ω → last column at that ω
	kept  int
}

// New builds a dictionary for the golden circuit observed at output and
// driven by the named source, over the given fault universe.
func New(golden *circuit.Circuit, source, output string, u *fault.Universe) (*Dictionary, error) {
	if u == nil {
		return nil, fmt.Errorf("dictionary: nil universe")
	}
	if err := u.Validate(golden); err != nil {
		return nil, err
	}
	d := &Dictionary{
		golden:   golden.Clone(),
		source:   source,
		output:   output,
		universe: u,
		faults:   u.Faults(),
	}
	// Compiling the template fails fast on unbuildable golden circuits and
	// unusable measurements (missing source, zero amplitude).
	eng, err := engine.New(d.golden, source, output)
	if err != nil {
		return nil, fmt.Errorf("dictionary: %w", err)
	}
	d.eng = eng
	// Resolved on first use, not here: New stays a template compile, and
	// a dictionary that only ever solves fault sets never resolves it.
	d.plan = sync.OnceValues(func() (*engine.Plan, error) {
		p := &engine.Plan{}
		if err := engine.Resolve(eng, d.faults, p); err != nil {
			return nil, fmt.Errorf("dictionary: %w", err)
		}
		return p, nil
	})
	return d, nil
}

// Engine exposes the batched solver the dictionary computes with.
func (d *Dictionary) Engine() *engine.Engine { return d.eng }

// Universe returns the dictionary's fault universe.
func (d *Dictionary) Universe() *fault.Universe { return d.universe }

// Source returns the driving source name.
func (d *Dictionary) Source() string { return d.source }

// Output returns the observed node name.
func (d *Dictionary) Output() string { return d.output }

// Golden returns a clone of the golden circuit.
func (d *Dictionary) Golden() *circuit.Circuit { return d.golden.Clone() }

// ScalarResponse computes |H(jω)| the pre-engine way: clone the golden
// circuit, inject the fault, assemble and factor a fresh MNA system, on
// every call; nothing is kept. It is the per-point reference:
// CircuitSignature takes its golden term from it, and the engine is
// verified against it.
func (d *Dictionary) ScalarResponse(f fault.Fault, omega float64) (float64, error) {
	faulty, err := f.Apply(d.golden)
	if err != nil {
		return 0, err
	}
	ac, err := analysis.NewAC(faulty)
	if err != nil {
		return 0, fmt.Errorf("dictionary: fault %s: %w", f.ID(), err)
	}
	h, err := ac.Transfer(d.source, d.output, omega)
	if err != nil {
		return 0, fmt.Errorf("dictionary: fault %s at ω=%g: %w", f.ID(), omega, err)
	}
	return cmplx.Abs(h), nil
}

// Response returns |H(jω)| for the given fault (use the zero Fault for
// the golden circuit). A grid cell is served when one matches;
// otherwise the response is solved and returned, and nothing is stored.
//
// A grid cell matches when its row's ID equals the fault's and its parts
// equal the fault's exactly, component and deviation compared with ==.
// The ID only narrows the search: IDs round deviations to whole
// percents, and R4@+20.4 % must not be answered with R4@+20 %. The
// newest grid holding the point serves, from its last row with that ID
// and its last column at ω.
//
// A miss is solved on the engine's batched path, the one BuildGrid
// fills its grids through: the set is resolved as a one-item plan and
// solved at that ω alone. A miss therefore equals the grid cell at that
// point bit for bit, unless the engine's sparse kernel rule picks
// different column kernels for the grid and for the one-item plan (the
// reach-limited half-solves for one, the multi-RHS block solve for the
// other), as it does on chains; the two then agree to rounding.
func (d *Dictionary) Response(f fault.Fault, omega float64) (float64, error) {
	return d.ResponseSet(f, omega)
}

// ResponseSet is Response over an arbitrary fault set — golden, single,
// or multiple fault. Grid rows are named by the set's stable ID, so a
// single fault reads the same rows as Response, and a multi-fault grid
// coexists with the single-fault one.
func (d *Dictionary) ResponseSet(set fault.Set, omega float64) (float64, error) {
	id, parts := set.ID(), set.Parts()
	d.mu.Lock()
	v, ok := d.lookup(id, parts, omega)
	d.mu.Unlock()
	if ok {
		return v, nil
	}

	var p engine.Plan
	if err := engine.Resolve(d.eng, []fault.Set{set}, &p); err != nil {
		return 0, fmt.Errorf("dictionary: %w", err)
	}
	var b engine.Batch
	if err := d.eng.SolveInto(nil, &p, []float64{omega}, 1, nil, &b); err != nil {
		return 0, fmt.Errorf("dictionary: %w", err)
	}
	return b.Mags[0][0], nil
}

// lookup returns the stored response of the set with this ID and these
// parts at ω from the newest grid holding it. The caller holds d.mu.
func (d *Dictionary) lookup(id string, parts []fault.Fault, omega float64) (float64, bool) {
	for i := len(d.grids) - 1; i >= 0; i-- {
		if v, ok := d.grids[i].lookup(id, parts, omega); ok {
			return v, true
		}
	}
	return 0, false
}

// newGrid wraps a finished batch as a grid over the given row parts (see
// grid.parts), indexing its columns and its golden row. The caller adds
// the fault rows to g.rows.
func newGrid(b *engine.Batch, parts []fault.Fault, off []int) *grid {
	g := &grid{
		omegas: b.Omegas,
		golden: b.Golden,
		mags:   b.Mags,
		parts:  parts,
		off:    off,
		rows:   make(map[string]int, len(b.Mags)+1),
		cols:   make(map[float64]int, len(b.Omegas)),
	}
	g.rows["golden"] = -1
	for j, w := range b.Omegas {
		g.cols[w] = j
	}
	return g
}

// rowParts returns row r's parts (none for the golden row).
func (g *grid) rowParts(r int) []fault.Fault {
	switch {
	case r < 0:
		return nil
	case g.off == nil:
		return g.parts[r : r+1]
	}
	return g.parts[g.off[r]:g.off[r+1]]
}

// has reports whether cell (r, j) is stored.
func (g *grid) has(r, j int) bool { return (r+1)*len(g.omegas)+j < g.kept }

// lookup returns the stored response of the last row with this ID at the
// last column at ω, if that row's parts equal parts.
func (g *grid) lookup(id string, parts []fault.Fault, omega float64) (float64, bool) {
	r, ok := g.rows[id]
	if !ok || !slices.Equal(g.rowParts(r), parts) {
		return 0, false
	}
	j, ok := g.cols[omega]
	if !ok || !g.has(r, j) {
		return 0, false
	}
	if r < 0 {
		return g.golden[j], true
	}
	return g.mags[r][j], true
}

// storeGrid adds a grid, keeping the prefix of its cells that fits under
// MemoLimit. A partly kept grid copies out the rows it keeps, so the
// rest of the engine's table can be collected.
func (d *Dictionary) storeGrid(g *grid) {
	d.mu.Lock()
	defer d.mu.Unlock()
	nw := len(g.omegas)
	total := (len(g.mags) + 1) * nw
	g.kept = min(total, MemoLimit-d.cells)
	if g.kept <= 0 {
		return
	}
	if g.kept < total {
		rows := (g.kept+nw-1)/nw - 1 // fault rows holding a kept cell
		flat := make([]float64, rows*nw)
		mags := make([][]float64, rows)
		for r := range mags {
			mags[r] = flat[r*nw : (r+1)*nw]
			copy(mags[r], g.mags[r])
		}
		g.mags = mags
	}
	d.cells += g.kept
	d.grids = append(d.grids, g)
}

// GoldenResponse returns the nominal |H(jω)|.
func (d *Dictionary) GoldenResponse(omega float64) (float64, error) {
	return d.Response(fault.Fault{}, omega)
}

// Signature maps a fault set — golden, single or multiple fault — to
// its point in the test-vector space: the vector of |H_set(ωi)| −
// |H_golden(ωi)| over the test frequencies. It is SignaturesSets of the
// one set, a single batched solve over every ω, so it reads no grid and
// stores nothing. Per the paper's simplification, the golden response
// sits at the origin.
func (d *Dictionary) Signature(set fault.Set, omegas []float64) ([]float64, error) {
	rows, err := d.SignaturesSets(nil, []fault.Set{set}, omegas)
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// CircuitSignature computes the signature point of an arbitrary circuit
// variant — a multiple fault, a tolerance-perturbed board, anything with
// the same source and output — against this dictionary's golden
// response. Both terms come from the per-point reference, analysis.AC:
// the variant's response minus ScalarResponse of the golden circuit, so
// a clone of the golden circuit sits exactly at the origin. Variants are
// one-off and nothing of them is kept; only the golden term at the last
// test vector asked for is.
func (d *Dictionary) CircuitSignature(c *circuit.Circuit, omegas []float64) ([]float64, error) {
	if len(omegas) == 0 {
		return nil, fmt.Errorf("dictionary: empty test vector")
	}
	ac, err := analysis.NewAC(c)
	if err != nil {
		return nil, err
	}
	golden, err := d.referenceGolden(omegas)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(omegas))
	for i, w := range omegas {
		h, err := ac.Transfer(d.source, d.output, w)
		if err != nil {
			return nil, err
		}
		out[i] = cmplx.Abs(h) - golden[i]
	}
	return out, nil
}

// referenceGolden returns ScalarResponse of the golden circuit at each
// of omegas, CircuitSignature's golden term. The row of the last vector
// asked for is kept, so a loop over variants at one test vector factors
// the golden system once per ω, not once per variant. The returned row
// is shared and must not be modified.
func (d *Dictionary) referenceGolden(omegas []float64) ([]float64, error) {
	d.mu.Lock()
	if slices.Equal(d.refOmegas, omegas) {
		row := d.refGolden
		d.mu.Unlock()
		return row, nil
	}
	d.mu.Unlock()
	row := make([]float64, len(omegas))
	for i, w := range omegas {
		var err error
		if row[i], err = d.ScalarResponse(fault.Fault{}, w); err != nil {
			return nil, err
		}
	}
	d.mu.Lock()
	d.refOmegas, d.refGolden = slices.Clone(omegas), row
	d.mu.Unlock()
	return row, nil
}

// BuildGrid precomputes every fault's response (plus the golden one) on a
// frequency grid via the batched engine, fanning the frequencies out
// across workers goroutines (0 → one per CPU). The engine's table is kept
// as a grid, with one row index by fault ID built before BuildGrid
// returns, so subsequent Response, ResponseSet and Snapshot calls on
// grid points are pure lookups (see Response for the exact-match rule
// and MemoLimit for how cells count). It returns the first error
// encountered; a canceled context stops within one in-flight frequency
// per worker (the error wraps rerr.ErrCanceled) and stores nothing.
func (d *Dictionary) BuildGrid(ctx context.Context, omegas []float64, workers int) error {
	return d.BuildGridProgress(ctx, omegas, workers, nil)
}

// BuildGridProgress is BuildGrid with a per-frequency progress hook (see
// engine.SolveInto for the hook's concurrency contract).
func (d *Dictionary) BuildGridProgress(ctx context.Context, omegas []float64, workers int, progress func(done, total int)) error {
	p, err := d.plan()
	if err != nil {
		return err
	}
	batch := &engine.Batch{}
	if err := d.eng.SolveInto(ctx, p, omegas, workers, progress, batch); err != nil {
		return fmt.Errorf("dictionary: %w", err)
	}
	g := newGrid(batch, d.faults, nil) // d.faults never changes
	for r, f := range d.faults {
		g.rows[f.ID()] = r
	}
	d.storeGrid(g)
	return nil
}

// BuildGridSets precomputes the responses of arbitrary fault sets (plus
// the golden row) on a frequency grid via the batched rank-k engine and
// keeps the table as a grid with rows named by each set's ID — the
// multi-fault analogue of BuildGrid, used to extend a dictionary grid
// with a double-fault universe before Snapshot. The grid copies every
// set's parts, so the exact-match rule (see Response) holds even if the
// caller changes a set afterwards. Lookups, cell counting and
// cancellation match BuildGrid.
func (d *Dictionary) BuildGridSets(ctx context.Context, sets []fault.Set, omegas []float64, workers int) error {
	var p engine.Plan
	if err := engine.Resolve(d.eng, sets, &p); err != nil {
		return fmt.Errorf("dictionary: %w", err)
	}
	batch := &engine.Batch{}
	if err := d.eng.SolveInto(ctx, &p, omegas, workers, nil, batch); err != nil {
		return fmt.Errorf("dictionary: %w", err)
	}
	n := 0
	for _, set := range sets {
		n += len(set.Parts())
	}
	g := newGrid(batch, make([]fault.Fault, 0, n), make([]int, 1, len(sets)+1))
	for r, set := range sets {
		g.rows[set.ID()] = r
		g.parts = append(g.parts, set.Parts()...)
		g.off = append(g.off, len(g.parts))
	}
	d.storeGrid(g)
	return nil
}

// SignatureScratch owns the reusable storage behind
// UniverseSignaturesInto: the engine batch and the signature rows
// (headers resliced over one flat backing array). The zero value is
// ready to use. A scratch is single-use at a time — callers that
// evaluate concurrently hold one scratch per goroutine.
type SignatureScratch struct {
	batch engine.Batch
	rows  [][]float64
	flat  []float64
}

// UniverseSignaturesInto computes the signature of every fault in the
// universe at the given test frequencies, row-aligned with
// Universe().Faults(), into caller-owned scratch: the returned rows
// alias the scratch and stay valid until its next use, so a scratch held
// across calls makes the steady state allocation-free. This is the GA
// fitness path, trajectory.Builder's: every candidate test vector solves
// the universe plan the dictionary resolved once, without reading the
// grids or taking the dictionary's mutex.
//
// The solve runs inline on the calling goroutine: test vectors are a
// handful of frequencies, and the heavy caller — the GA's fitness
// evaluation — is already parallel at the population level, so a nested
// per-call worker pool would only oversubscribe the CPUs. The context is
// checked before each frequency; cancellation errors wrap
// rerr.ErrCanceled.
func (d *Dictionary) UniverseSignaturesInto(ctx context.Context, omegas []float64, s *SignatureScratch) ([][]float64, error) {
	p, err := d.plan()
	if err != nil {
		return nil, err
	}
	return d.solveRows(ctx, p, omegas, s)
}

// SignaturesSets computes the signature points of arbitrary fault sets —
// golden, single, or multiple faults, freely mixed — in one batched
// rank-k solve, inline like UniverseSignaturesInto. Row i is
// |H_sets[i](ω)| − |H_golden(ω)| over omegas. Every row is solved: it
// reads no grid and stores nothing.
func (d *Dictionary) SignaturesSets(ctx context.Context, sets []fault.Set, omegas []float64) ([][]float64, error) {
	return signatures(ctx, d, sets, omegas)
}

// Signatures is SignaturesSets over single faults.
func (d *Dictionary) Signatures(ctx context.Context, faults []fault.Fault, omegas []float64) ([][]float64, error) {
	return signatures(ctx, d, faults, omegas)
}

// signatures resolves items into a call-local plan and solves it into
// fresh scratch, so the returned rows are not shared.
func signatures[S fault.Set](ctx context.Context, d *Dictionary, items []S, omegas []float64) ([][]float64, error) {
	var p engine.Plan
	if err := engine.Resolve(d.eng, items, &p); err != nil {
		return nil, fmt.Errorf("dictionary: %w", err)
	}
	return d.solveRows(ctx, &p, omegas, &SignatureScratch{})
}

// solveRows solves plan p inline into s's batch and turns the table into
// signature rows (mag − golden), reusing the scratch's flat backing.
func (d *Dictionary) solveRows(ctx context.Context, p *engine.Plan, omegas []float64, s *SignatureScratch) ([][]float64, error) {
	if len(omegas) == 0 {
		return nil, fmt.Errorf("dictionary: empty test vector")
	}
	if err := d.eng.SolveInto(ctx, p, omegas, 1, nil, &s.batch); err != nil {
		return nil, fmt.Errorf("dictionary: %w", err)
	}
	n, nw := len(s.batch.Mags), len(omegas)
	s.flat = sliceutil.Grow(s.flat, n*nw)
	s.rows = sliceutil.Grow(s.rows, n)
	golden := s.batch.Golden
	for i := range s.rows {
		row := s.flat[i*nw : (i+1)*nw : (i+1)*nw]
		mags := s.batch.Mags[i]
		for j := range row {
			row[j] = mags[j] - golden[j]
		}
		s.rows[i] = row
	}
	return s.rows, nil
}

// Entry is one exported dictionary row.
type Entry struct {
	// ID is the fault identifier ("golden" for the nominal row).
	ID string `json:"id"`
	// Mags holds |H| per grid frequency, index-aligned with the export's
	// Omegas.
	Mags []float64 `json:"mags"`
}

// Export is the JSON-serializable snapshot of a dictionary grid.
type Export struct {
	Circuit string    `json:"circuit"`
	Source  string    `json:"source"`
	Output  string    `json:"output"`
	Omegas  []float64 `json:"omegas"`
	Entries []Entry   `json:"entries"`
}

// Snapshot evaluates the grid cell by cell, as ResponseSet does (a grid
// cell is read, any other point solved), and returns an Export with the
// golden row first and fault rows in universe order.
func (d *Dictionary) Snapshot(omegas []float64) (*Export, error) {
	return d.SnapshotSets(omegas, nil)
}

// SnapshotSets is Snapshot with extra fault sets appended after the
// single-fault universe rows — the export path for multi-fault grids.
// Set rows are keyed by their stable IDs (e.g. "C1@-20%+R3@+30%"),
// which ParseSetID inverts, so an exported multi-fault grid round-trips
// through ParseExport and trajectory.BuildFromExport.
func (d *Dictionary) SnapshotSets(omegas []float64, sets []fault.Set) (*Export, error) {
	ex := &Export{
		Circuit: d.golden.Name(),
		Source:  d.source,
		Output:  d.output,
		Omegas:  append([]float64(nil), omegas...),
	}
	row := func(set fault.Set) (Entry, error) {
		mags := make([]float64, len(omegas))
		for i, w := range omegas {
			m, err := d.ResponseSet(set, w)
			if err != nil {
				return Entry{}, err
			}
			mags[i] = m
		}
		return Entry{ID: set.ID(), Mags: mags}, nil
	}
	g, err := row(fault.Fault{})
	if err != nil {
		return nil, err
	}
	ex.Entries = append(ex.Entries, g)
	for _, f := range d.universe.Faults() {
		e, err := row(f)
		if err != nil {
			return nil, err
		}
		ex.Entries = append(ex.Entries, e)
	}
	for _, set := range sets {
		e, err := row(set)
		if err != nil {
			return nil, err
		}
		ex.Entries = append(ex.Entries, e)
	}
	return ex, nil
}

// MarshalIndent renders the export as indented JSON.
func (e *Export) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(e, "", "  ")
}

// ParseExport loads a snapshot produced by MarshalIndent.
func ParseExport(data []byte) (*Export, error) {
	var e Export
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("dictionary: bad export: %w", err)
	}
	if len(e.Entries) == 0 {
		return nil, fmt.Errorf("dictionary: export has no entries")
	}
	for _, ent := range e.Entries {
		if len(ent.Mags) != len(e.Omegas) {
			return nil, fmt.Errorf("dictionary: entry %s has %d mags for %d omegas", ent.ID, len(ent.Mags), len(e.Omegas))
		}
	}
	return &e, nil
}

// CachedCount reports how many distinct (fault ID, ω) points the grids
// store — useful in tests and benchmarks to verify laziness. A point
// several grids hold counts once here, though each of its cells counts
// against MemoLimit. It is computed on demand from the grids.
func (d *Dictionary) CachedCount() int {
	type point struct {
		id    string
		omega float64
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	seen := make(map[point]bool)
	d.eachPoint(func(id string, omega float64) { seen[point{id, omega}] = true })
	return len(seen)
}

// CachedFaultIDs lists the fault IDs with at least one grid cell stored,
// sorted.
func (d *Dictionary) CachedFaultIDs() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	seen := make(map[string]bool)
	d.eachPoint(func(id string, _ float64) { seen[id] = true })
	out := make([]string, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// eachPoint calls fn for every stored point a lookup can reach, once per
// grid holding it. The caller holds d.mu.
func (d *Dictionary) eachPoint(fn func(id string, omega float64)) {
	for _, g := range d.grids {
		for id, r := range g.rows {
			for w, j := range g.cols {
				if g.has(r, j) {
					fn(id, w)
				}
			}
		}
	}
}
