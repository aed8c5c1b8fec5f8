// Package engine is the batched AC solver behind the fault dictionary.
//
// It compiles a circuit once into a stamp template: the MNA matrix is
// expressed as
//
//	A(s) = A_static + Σ_e coeff_e(value_e, s) · u_e v_eᵀ
//
// where the sum runs over the Valued elements (the fault targets) and
// u_e, v_e are fixed sparse pattern vectors. Every Valued element in this
// repository — R, C, L, VCVS, VCCS, CCVS, CCCS — contributes to A through
// exactly one scalar coefficient times a rank-1 pattern, so a parametric
// fault is a rank-1 perturbation of the golden matrix and a simultaneous
// k-component fault is a rank-k one. Per frequency the engine factors
// the golden system once — a dense SoA LU for small circuits, or, for
// large sparse ones, a numeric refactorization on the pattern compiled
// here, FreqBlock frequencies per walk (sparse.go) — performs one
// z-solve per distinct slot in the batch in a single multi-RHS block
// solve (on sparse CUTs, reach-limited half-solves that compute only the
// entries the corrections read, sparsevec.go), and then solves every
// single fault via the Sherman–Morrison
// identity and every k-part fault set via the Sherman–Morrison–Woodbury
// identity (a k×k capacitance system over the shared z vectors), falling
// back to an exact solve when an update is ill-conditioned (blocked.go).
// Frequencies fan out over a worker pool with per-worker scratch
// workspaces, so a whole dictionary grid costs one golden factorization
// per frequency instead of one per (fault, frequency). ResponseSet
// factors each (fault set, frequency) from scratch with a plain complex
// LU; it is the independent reference the batch path is tested against.
package engine

import (
	"fmt"
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/numeric"
	"repro/internal/sliceutil"
)

// sparseEntry is one weighted index of a pattern vector.
type sparseEntry struct {
	idx int
	w   complex128
}

// staticEntry is one constant A-matrix contribution.
type staticEntry struct {
	i, j int
	v    complex128
}

// coeffKind selects how a slot's scalar coefficient depends on the
// element value and the complex frequency s.
type coeffKind int

const (
	coeffConductance coeffKind = iota // θ = 1/value        (resistor)
	coeffCapacitance                  // θ = s·value        (capacitor)
	coeffInductance                   // θ = -s·value       (inductor branch eq)
	coeffGain                         // θ = value          (controlled sources)
)

// slot is one Valued element's parameter-dependent contribution:
// coeff(value, s) · u vᵀ added into A.
type slot struct {
	elem  string
	value float64 // nominal value at compile time
	kind  coeffKind
	u, v  []sparseEntry
}

// coeff evaluates the slot's scalar coefficient for an arbitrary value.
func (sl *slot) coeff(value float64, s complex128) complex128 {
	switch sl.kind {
	case coeffConductance:
		return complex(1/value, 0)
	case coeffCapacitance:
		return s * complex(value, 0)
	case coeffInductance:
		return -s * complex(value, 0)
	default:
		return complex(value, 0)
	}
}

// Template is a compiled MNA stamp program for one circuit: the fixed
// variable ordering, the constant part of the matrix and RHS, and one
// parameter slot per Valued element. A faulted or re-valued circuit is a
// coefficient patch on the shared template — no clone, no reassembly.
type Template struct {
	sys    *circuit.System
	n      int
	static []staticEntry
	b      []complex128
	slots  []slot
	byName map[string]int // element name → slot index

	// sparse is the compiled sparse golden stamp program (see sparse.go):
	// the one-time symbolic analysis of the frequency-independent MNA
	// pattern plus the index maps that scatter static entries and slot
	// rank-1 products into value planes. Nil when the pattern does not
	// analyze (degenerate circuits), in which case only the dense paths
	// run.
	sparse *sparseProgram
}

// Compile builds the template for a circuit. It fails on circuits that do
// not assemble, and self-checks the compiled stamp program against the
// element Stamp methods at two probe frequencies so a template can never
// silently disagree with the classic per-point path.
func Compile(c *circuit.Circuit) (*Template, error) {
	sys, err := c.Assemble()
	if err != nil {
		return nil, err
	}
	t := &Template{
		sys:    sys,
		n:      sys.Size(),
		b:      make([]complex128, sys.Size()),
		byName: make(map[string]int),
	}
	for _, e := range c.Elements() {
		if err := t.compileElement(sys, e); err != nil {
			return nil, err
		}
	}
	if err := t.verify(); err != nil {
		return nil, err
	}
	t.sparse = compileSparse(t)
	return t, nil
}

// node resolves a node name to its matrix index (-1 for ground); compile
// runs after Assemble so unknown nodes cannot occur.
func node(sys *circuit.System, name string) int {
	i, err := sys.NodeIndex(name)
	if err != nil {
		panic(fmt.Sprintf("engine: %v", err))
	}
	return i
}

// pair returns the ground-dropped ±1 pattern over two node indices.
func pair(i, j int) []sparseEntry {
	var out []sparseEntry
	if i >= 0 {
		out = append(out, sparseEntry{i, 1})
	}
	if j >= 0 {
		out = append(out, sparseEntry{j, -1})
	}
	return out
}

// addStatic records a constant A entry, dropping ground indices.
func (t *Template) addStatic(i, j int, v complex128) {
	if i < 0 || j < 0 {
		return
	}
	t.static = append(t.static, staticEntry{i, j, v})
}

// addB accumulates a constant RHS entry, dropping ground.
func (t *Template) addB(i int, v complex128) {
	if i < 0 {
		return
	}
	t.b[i] += v
}

// addSlot registers a Valued element's rank-1 contribution.
func (t *Template) addSlot(name string, value float64, kind coeffKind, u, v []sparseEntry) {
	t.byName[name] = len(t.slots)
	t.slots = append(t.slots, slot{elem: name, value: value, kind: kind, u: u, v: v})
}

// aux returns an element's auxiliary-variable index; compile runs after
// Assemble, which allocated one for every element that declares NumAux>0.
func aux(sys *circuit.System, name string) (int, error) {
	k, ok := sys.BranchIndex(name)
	if !ok {
		return 0, fmt.Errorf("engine: element %s: missing aux variable", name)
	}
	return k, nil
}

func (t *Template) compileElement(sys *circuit.System, e circuit.Element) error {
	switch el := e.(type) {
	case *circuit.Resistor:
		p := pair(node(sys, el.Nodes()[0]), node(sys, el.Nodes()[1]))
		t.addSlot(el.Name(), el.Ohms, coeffConductance, p, p)
	case *circuit.Capacitor:
		p := pair(node(sys, el.Nodes()[0]), node(sys, el.Nodes()[1]))
		t.addSlot(el.Name(), el.Farads, coeffCapacitance, p, p)
	case *circuit.Inductor:
		k, err := aux(sys, el.Name())
		if err != nil {
			return err
		}
		i, j := node(sys, el.Nodes()[0]), node(sys, el.Nodes()[1])
		t.addStatic(i, k, 1)
		t.addStatic(j, k, -1)
		t.addStatic(k, i, 1)
		t.addStatic(k, j, -1)
		ek := []sparseEntry{{k, 1}}
		t.addSlot(el.Name(), el.Henries, coeffInductance, ek, ek)
	case *circuit.VSource:
		k, err := aux(sys, el.Name())
		if err != nil {
			return err
		}
		i, j := node(sys, el.Nodes()[0]), node(sys, el.Nodes()[1])
		t.addStatic(i, k, 1)
		t.addStatic(j, k, -1)
		t.addStatic(k, i, 1)
		t.addStatic(k, j, -1)
		t.addB(k, el.Amplitude)
	case *circuit.ISource:
		i, j := node(sys, el.Nodes()[0]), node(sys, el.Nodes()[1])
		t.addB(i, -el.Amplitude)
		t.addB(j, el.Amplitude)
	case *circuit.VCVS:
		k, err := aux(sys, el.Name())
		if err != nil {
			return err
		}
		op, on := node(sys, el.OutP), node(sys, el.OutN)
		cp, cn := node(sys, el.CtlP), node(sys, el.CtlN)
		t.addStatic(op, k, 1)
		t.addStatic(on, k, -1)
		t.addStatic(k, op, 1)
		t.addStatic(k, on, -1)
		// A[k,cp] = -Gain, A[k,cn] = +Gain → Gain · e_k (e_cn - e_cp)ᵀ.
		t.addSlot(el.Name(), el.Gain, coeffGain, []sparseEntry{{k, 1}}, pair(cn, cp))
	case *circuit.VCCS:
		op, on := node(sys, el.OutP), node(sys, el.OutN)
		cp, cn := node(sys, el.CtlP), node(sys, el.CtlN)
		t.addSlot(el.Name(), el.Gm, coeffGain, pair(op, on), pair(cp, cn))
	case *circuit.CCVS:
		k, err := aux(sys, el.Name())
		if err != nil {
			return err
		}
		kc, err := aux(sys, el.Control)
		if err != nil {
			return fmt.Errorf("engine: %s: controlling element %q has no branch current", el.Name(), el.Control)
		}
		op, on := node(sys, el.OutP), node(sys, el.OutN)
		t.addStatic(op, k, 1)
		t.addStatic(on, k, -1)
		t.addStatic(k, op, 1)
		t.addStatic(k, on, -1)
		// A[k,kc] = -R.
		t.addSlot(el.Name(), el.R, coeffGain, []sparseEntry{{k, 1}}, []sparseEntry{{kc, -1}})
	case *circuit.CCCS:
		kc, err := aux(sys, el.Control)
		if err != nil {
			return fmt.Errorf("engine: %s: controlling element %q has no branch current", el.Name(), el.Control)
		}
		op, on := node(sys, el.OutP), node(sys, el.OutN)
		t.addSlot(el.Name(), el.Gain, coeffGain, pair(op, on), []sparseEntry{{kc, 1}})
	case *circuit.IdealOpAmp:
		k, err := aux(sys, el.Name())
		if err != nil {
			return err
		}
		out := node(sys, el.Out)
		ip, in := node(sys, el.InP), node(sys, el.InN)
		t.addStatic(out, k, 1)
		t.addStatic(k, ip, 1)
		t.addStatic(k, in, -1)
	default:
		return fmt.Errorf("engine: cannot compile element %s of type %T", e.Name(), e)
	}
	return nil
}

// Size returns the MNA system order.
func (t *Template) Size() int { return t.n }

// System returns the underlying assembled system (variable ordering).
func (t *Template) System() *circuit.System { return t.sys }

// HasSlot reports whether the named element is a compiled parameter slot
// (i.e. a legal rank-1 fault target).
func (t *Template) HasSlot(elem string) bool {
	_, ok := t.byName[elem]
	return ok
}

// stampGolden fills dst (which must be n×n) with the golden A(s): the
// static entries plus every slot at its nominal value.
func (t *Template) stampGolden(dst *numeric.Matrix, s complex128) {
	dst.Zero()
	for _, e := range t.static {
		dst.Add(e.i, e.j, e.v)
	}
	for i := range t.slots {
		sl := &t.slots[i]
		t.addRank1(dst, sl, sl.coeff(sl.value, s))
	}
}

// addRank1 accumulates θ · u vᵀ for one slot into dst.
func (t *Template) addRank1(dst *numeric.Matrix, sl *slot, theta complex128) {
	if theta == 0 {
		return
	}
	for _, ue := range sl.u {
		w := theta * ue.w
		for _, ve := range sl.v {
			dst.Add(ue.idx, ve.idx, w*ve.w)
		}
	}
}

// stampGoldenSoA is stampGolden writing into split re/im planes — the
// blocked kernel path's matrix source. Stamp order matches stampGolden
// exactly, so the two layouts hold bitwise-identical values.
func (t *Template) stampGoldenSoA(dst *numeric.SoAMatrix, s complex128) {
	dst.Zero()
	for _, e := range t.static {
		dst.Add(e.i, e.j, e.v)
	}
	for i := range t.slots {
		sl := &t.slots[i]
		t.addRank1SoA(dst, sl, sl.coeff(sl.value, s))
	}
}

// addRank1SoA accumulates θ · u vᵀ for one slot into SoA planes.
func (t *Template) addRank1SoA(dst *numeric.SoAMatrix, sl *slot, theta complex128) {
	if theta == 0 {
		return
	}
	for _, ue := range sl.u {
		w := theta * ue.w
		for _, ve := range sl.v {
			dst.Add(ue.idx, ve.idx, w*ve.w)
		}
	}
}

// RHS returns the template's constant source vector (not a copy).
func (t *Template) RHS() []complex128 { return t.b }

// verify cross-checks the compiled template against the elements' own
// Stamp methods at two probe frequencies, sharing one stampCheck between
// them.
func (t *Template) verify() error {
	c := newStampCheck(t)
	for _, s := range []complex128{0, complex(0, 2.7182818)} {
		if err := t.verifyAt(s, &c); err != nil {
			return err
		}
	}
	return nil
}

// stampCheck is verifyAt's scratch: both sides' stamp triplets, their
// row-sorted copies and row boundaries, and dense length-n row
// accumulators — O(nnz + n) in all, where comparing dense stamps would
// take O(n²).
type stampCheck struct {
	want, got       []circuit.Triplet // stamp order
	wantB           []complex128
	wantRow, gotRow []circuit.Triplet // sorted by row, stamp order kept within a row
	wantOff, gotOff []int             // row r is xRow[xOff[r]:xOff[r+1]]
	accW, accG      []complex128      // row accumulators, all zero between rows
	seen            []int             // 1 if the column is touched in the current row
	cols            []int             // touched columns of the current row
}

// newStampCheck sizes the scratch for t in one allocation per element
// type: the triplet lists at the template's contribution count, which a
// matching element stamp equals (an element stamp with more
// contributions grows its list on append).
func newStampCheck(t *Template) stampCheck {
	n, nnz := t.n, len(t.static)
	for i := range t.slots {
		nnz += len(t.slots[i].u) * len(t.slots[i].v)
	}
	trip := make([]circuit.Triplet, 4*nnz)
	ints := make([]int, 4*n+2)
	vals := make([]complex128, 3*n)
	return stampCheck{
		want:    trip[0:0:nnz],
		got:     trip[nnz : nnz : 2*nnz],
		wantRow: trip[2*nnz : 2*nnz : 3*nnz],
		gotRow:  trip[3*nnz : 3*nnz : 4*nnz],
		wantB:   vals[0:0:n],
		accW:    vals[n : 2*n : 2*n],
		accG:    vals[2*n : 3*n : 3*n],
		wantOff: ints[0 : n+1 : n+1],
		gotOff:  ints[n+1 : 2*n+2 : 2*n+2],
		cols:    ints[2*n+2 : 2*n+2 : 3*n+2],
		seen:    ints[3*n+2 : 4*n+2 : 4*n+2],
	}
}

// verifyAt cross-checks the compiled template against the elements' own
// Stamp methods at one complex frequency: every entry of A in the union
// of both sparsity patterns must agree within 1e-12·(1 + max|A|), and so
// must every RHS entry. Entries outside both patterns are zero on both
// sides. Each side sums a position's contributions in stamp order — the
// exact additions a dense stamp performs — one row at a time.
func (t *Template) verifyAt(s complex128, c *stampCheck) error {
	var err error
	c.want, c.wantB, err = t.sys.TripletsAt(s, c.want, c.wantB)
	if err != nil {
		return err
	}
	c.got = t.goldenTriplets(c.got, s)
	c.wantRow = sortRows(c.want, c.wantRow, c.wantOff)
	c.gotRow = sortRows(c.got, c.gotRow, c.gotOff)
	var maxWant, maxDiff float64
	wi, wj := 0, 0
	for r := 0; r < t.n; r++ {
		cols := c.accumulate(c.wantRow[c.wantOff[r]:c.wantOff[r+1]], c.accW, c.cols[:0])
		cols = c.accumulate(c.gotRow[c.gotOff[r]:c.gotOff[r+1]], c.accG, cols)
		for _, j := range cols {
			if a := cmplx.Abs(c.accW[j]); a > maxWant {
				maxWant = a
			}
			if d := cmplx.Abs(c.accG[j] - c.accW[j]); d > maxDiff {
				maxDiff, wi, wj = d, r, j
			}
			c.accW[j], c.accG[j], c.seen[j] = 0, 0, 0
		}
		c.cols = cols
	}
	tol := 1e-12 * (1 + maxWant)
	if maxDiff > tol {
		return fmt.Errorf("engine: compiled template disagrees with element stamps at s=%v: A[%d][%d] differs by %.3g (tolerance %.3g)", s, wi, wj, maxDiff, tol)
	}
	for i := range c.wantB {
		if d := t.b[i] - c.wantB[i]; real(d)*real(d)+imag(d)*imag(d) > tol*tol {
			return fmt.Errorf("engine: compiled RHS disagrees with element stamps at s=%v", s)
		}
	}
	return nil
}

// accumulate adds one side's row contributions into acc in stamp order
// and appends every column the row touches for the first time to cols.
func (c *stampCheck) accumulate(row []circuit.Triplet, acc []complex128, cols []int) []int {
	for _, e := range row {
		if c.seen[e.Col] == 0 {
			c.seen[e.Col] = 1
			cols = append(cols, e.Col)
		}
		acc[e.Col] += e.V
	}
	return cols
}

// goldenTriplets appends the golden A(s) contributions to dst[:0] in
// stampGolden's order, skipping the same zero-coefficient slots.
func (t *Template) goldenTriplets(dst []circuit.Triplet, s complex128) []circuit.Triplet {
	dst = dst[:0]
	for _, e := range t.static {
		dst = append(dst, circuit.Triplet{Row: e.i, Col: e.j, V: e.v})
	}
	for i := range t.slots {
		sl := &t.slots[i]
		theta := sl.coeff(sl.value, s)
		if theta == 0 {
			continue
		}
		for _, ue := range sl.u {
			w := theta * ue.w
			for _, ve := range sl.v {
				dst = append(dst, circuit.Triplet{Row: ue.idx, Col: ve.idx, V: w * ve.w})
			}
		}
	}
	return dst
}

// sortRows counting-sorts trip by row into dst, which it returns, and
// fills off (length n+1) with the row boundaries. The sort is stable, so
// each row keeps stamp order.
func sortRows(trip, dst []circuit.Triplet, off []int) []circuit.Triplet {
	clear(off)
	for _, e := range trip {
		off[e.Row+1]++
	}
	for r := 1; r < len(off); r++ {
		off[r] += off[r-1]
	}
	// Place each triplet at its row's cursor off[row], which then ends at
	// the row's end; shifting off up by one restores the row starts.
	dst = sliceutil.Grow(dst, len(trip))
	for _, e := range trip {
		dst[off[e.Row]] = e
		off[e.Row]++
	}
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
	return dst
}
