package circuits

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/circuit"
	"repro/internal/netlist"
)

// This file is the parameterized scaling tier of the benchmark library:
// CUT families whose size is a constructor argument, reaching hundreds
// of MNA unknowns — the workload the sparse golden engine exists for.
// Two families are registered:
//
//   - rc-ladder-<n>     — RCLadder(n), the pure-passive stress ladder
//     (n+2 unknowns);
//   - opamp-cascade-<n> — OpampCascade(n), an active n-stage MFB
//     low-pass chain built through the netlist .subckt expansion with a
//     single-pole opamp macromodel per stage (6n+2 unknowns);
//   - rc-grid-<k>       — RCGrid(k), a k×k two-dimensional RC mesh
//     (k²+1 unknowns) whose 2-D connectivity produces the fill and
//     supernode structure a 1-D ladder cannot — the thousand-node tier
//     the sparse numeric phase targets.
//
// All are reachable by name from every binary through ByName, which
// recognizes the parameterized suffix and refuses sizes past
// MaxUnknowns before constructing anything.

// OpampCascade returns an n-stage active filter cascade: n MFB low-pass
// subcircuit instances X1..Xn in series, each expanded into passives
// plus a VCVS-based opamp macromodel by the netlist .subckt machinery.
//
// Each stage is a normalized multiple-feedback (MFB) low-pass (ω0 = 1
// rad/s, Q ≈ 0.67; R1 = R2 = R3 = 1, C1 = 2, C2 = 0.5 — the NFLowpass7
// core values) around an inline single-pole opamp macromodel with the
// opamp.Expand topology (Rin, VCVS gain stage, Rp–Cp dominant pole,
// Rout): A0 = 1e5, pole ω_p = 1e3 rad/s (Rp = 1 kΩ → Cp = 1 µF).
// Stage i's fault targets are its five filter passives X<i>.R1, X<i>.R2,
// X<i>.R3, X<i>.C1, X<i>.C2 (the macromodel primitives stay golden).
// With ~6 unknowns per stage the cascade reaches hundreds of MNA
// unknowns by n ≈ 40.
func OpampCascade(n int) (CUT, error) {
	if n < 1 {
		return CUT{}, fmt.Errorf("circuits: OpampCascade needs n >= 1, got %d", n)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "opamp-cascade-%d\n", n)
	b.WriteString(`.subckt mfblp in out
R1 in x 1
R2 x out 1
R3 x vg 1
C1 x 0 2
C2 vg out 0.5
RIN 0 vg 1meg
E1 g 0 0 vg 100k
RP g p 1k
CP p 0 1u
RO p out 75
.ends
`)
	b.WriteString("Vin n0 0 1\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "X%d n%d n%d mfblp\n", i, i-1, i)
	}
	fmt.Fprintf(&b, "RL n%d 0 1\n", n)
	c, err := netlist.Parse(b.String())
	if err != nil {
		return CUT{}, fmt.Errorf("circuits: OpampCascade(%d): %w", n, err)
	}
	passives := make([]string, 0, 5*n)
	for i := 1; i <= n; i++ {
		for _, p := range []string{"R1", "R2", "R3", "C1", "C2"} {
			passives = append(passives, fmt.Sprintf("X%d.%s", i, p))
		}
	}
	return CUT{
		Circuit:  c,
		Source:   "Vin",
		Output:   fmt.Sprintf("n%d", n),
		Passives: passives,
		// Each stage is a unity-DC-gain low-pass at ω0 = 1; the cascade's
		// usable band shrinks with n, so center searches well inside it.
		Omega0:      0.5,
		Description: fmt.Sprintf("active %d-stage MFB low-pass cascade with opamp macromodels (%d fault targets)", n, 5*n),
	}, nil
}

// RCGrid returns a k×k two-dimensional RC mesh: node g<i>x<j> at grid
// position (i, j) with unit resistors to its right and down neighbors
// and a unit capacitor to ground, driven at the (0,0) corner and
// observed at the opposite (k-1,k-1) corner. Unlike the 1-D ladder —
// whose tridiagonal-like MNA pattern factors with almost no fill — the
// mesh is a genuine 2-D elimination problem (nested-dissection-grade
// fill, wide supernodes, a deep elimination tree), the structure the
// frequency-blocked sparse refactorization is built for. k = 32 crosses
// a thousand unknowns (k²+1 = 1025); k = 64 reaches 4097.
//
// The fault universe stays bounded as the grid scales: the 2k-1
// passives on the source→output main diagonal staircase, capped at 24
// targets, so the dictionary and rank-1 slot machinery stay small while
// the golden factorization carries the full k² system.
func RCGrid(k int) (CUT, error) {
	if k < 2 {
		return CUT{}, fmt.Errorf("circuits: RCGrid needs k >= 2, got %d", k)
	}
	c := circuit.New(fmt.Sprintf("rc-grid-%d", k))
	node := func(i, j int) string { return fmt.Sprintf("g%dx%d", i, j) }
	c.MustAdd(circuit.NewVSource("Vin", node(0, 0), "0", 1))
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			cur := node(i, j)
			if j+1 < k {
				c.MustAdd(circuit.NewResistor(fmt.Sprintf("Rh%dx%d", i, j), cur, node(i, j+1), 1))
			}
			if i+1 < k {
				c.MustAdd(circuit.NewResistor(fmt.Sprintf("Rv%dx%d", i, j), cur, node(i+1, j), 1))
			}
			c.MustAdd(circuit.NewCapacitor(fmt.Sprintf("C%dx%d", i, j), cur, "0", 1))
		}
	}
	// Diagonal staircase (0,0)→(k-1,k-1): alternate a right step and a
	// down step so every target lies on the source→output signal path.
	passives := make([]string, 0, 24)
	i, j := 0, 0
	for len(passives) < 24 && (i < k-1 || j < k-1) {
		if j < k-1 {
			passives = append(passives, fmt.Sprintf("Rh%dx%d", i, j))
			j++
		}
		if len(passives) < 24 && i < k-1 {
			passives = append(passives, fmt.Sprintf("Rv%dx%d", i, j))
			i++
		}
		if len(passives) < 24 {
			passives = append(passives, fmt.Sprintf("C%dx%d", i, j))
		}
	}
	return CUT{
		Circuit:  c,
		Source:   "Vin",
		Output:   node(k-1, k-1),
		Passives: passives,
		// The corner-to-corner transfer rolls off like a 2(k-1)-section
		// RC line; center searches inside the passband.
		Omega0:      1.0 / float64(2*(k-1)),
		Description: fmt.Sprintf("passive %d×%d RC mesh, %d unknowns (%d diagonal fault targets)", k, k, k*k+1, len(passives)),
	}, nil
}

// Scaling returns the parameterized scaling families at representative
// sizes, alongside All(): the CUT tier that exercises the sparse golden
// engine (see BENCH_sparse.json for the dense/sparse crossover these
// sizes straddle). Every entry is also reachable via ByName.
func Scaling() []CUT {
	out := make([]CUT, 0, 10)
	for _, n := range []int{16, 64, 128, 256} {
		cut, err := RCLadder(n)
		if err != nil {
			panic(err) // fixed n >= 1; cannot fail
		}
		out = append(out, cut)
	}
	for _, n := range []int{4, 16, 32} {
		cut, err := OpampCascade(n)
		if err != nil {
			panic(err) // fixed n >= 1; cannot fail
		}
		out = append(out, cut)
	}
	for _, k := range []int{8, 16, 32} {
		cut, err := RCGrid(k)
		if err != nil {
			panic(err) // fixed k >= 2; cannot fail
		}
		out = append(out, cut)
	}
	return out
}

// Families lists the parameterized CUT name patterns ByName recognizes,
// for CLI help and listings.
func Families() []string {
	return []string{"rc-ladder-<n>", "opamp-cascade-<n>", "rc-grid-<k>"}
}

// MaxUnknowns caps the MNA system size a family name given to ByName
// may build: rc-grid-64 (4097 unknowns), the largest CUT any checked-in
// benchmark record measures. Names are reachable from network requests,
// so an uncapped size would let one request allocate without bound.
const MaxUnknowns = 4097

// parameterized resolves a parameterized family name like "rc-ladder-128"
// or "opamp-cascade-16". The second return is false when the name does
// not belong to a family (the caller falls through to its own error);
// a family name whose system would exceed MaxUnknowns, or with a size
// its constructor rejects, returns an error.
func parameterized(name string) (CUT, bool, error) {
	for _, fam := range []struct {
		prefix string
		make   func(int) (CUT, error)
		// unknowns is the family's MNA system order at size n, in float64
		// so that absurd sizes cannot overflow past the cap.
		unknowns func(n float64) float64
	}{
		{"rc-ladder-", RCLadder, func(n float64) float64 { return n + 2 }},
		{"opamp-cascade-", OpampCascade, func(n float64) float64 { return 6*n + 2 }},
		{"rc-grid-", RCGrid, func(k float64) float64 { return k*k + 1 }},
	} {
		if !strings.HasPrefix(name, fam.prefix) {
			continue
		}
		n, err := strconv.Atoi(name[len(fam.prefix):])
		if err != nil {
			return CUT{}, false, nil
		}
		if u := fam.unknowns(float64(n)); u > MaxUnknowns {
			return CUT{}, true, fmt.Errorf("circuits: %s would have %.0f MNA unknowns, above the %d cap", name, u, MaxUnknowns)
		}
		cut, err := fam.make(n)
		if err != nil {
			return CUT{}, true, err
		}
		return cut, true, nil
	}
	return CUT{}, false, nil
}
