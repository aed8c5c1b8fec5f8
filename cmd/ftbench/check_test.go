package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// checkedIn is the path of a committed report, relative to this package.
func checkedIn(name string) string { return filepath.Join("..", "..", name) }

// checkNumericFloor is the numeric-phase acceptance floor, which only
// the committed record must show: its best blocked-vs-scalar numeric
// speedup at hugeNodes+ unknowns is ≥3×. Fresh runs hug 3×, so
// gateSparse holds regenerations relative to the baseline instead.
func checkNumericFloor(rep *sparseReport) error {
	var best float64
	for _, e := range rep.Entries {
		if e.Nodes >= hugeNodes {
			best = max(best, e.NumericSpeedup)
		}
	}
	if best < 3 {
		return fmt.Errorf("best %d+-unknown blocked numeric speedup %.2f× below the 3× numeric-phase acceptance floor",
			hugeNodes, best)
	}
	return nil
}

// compareTolerance requires got to reproduce want: the same CUTs in the
// same order with equal counts, and mean confidences within 1e-6, which
// absorbs FMA-contraction drift across toolchains and architectures.
func compareTolerance(got, want *toleranceReport) error {
	var v violations
	if len(got.Cuts) != len(want.Cuts) {
		v.add("%d CUTs, want %d", len(got.Cuts), len(want.Cuts))
		return v.err("tolerance reproduction")
	}
	for i := range want.Cuts {
		g, w := &got.Cuts[i], &want.Cuts[i]
		if g.Name != w.Name {
			v.add("CUT %d is %s, want %s", i, g.Name, w.Name)
			continue
		}
		if g.Trials != w.Trials || g.NearestTop1 != w.NearestTop1 || len(g.Samples) != len(w.Samples) {
			v.add("%s: trials %d, nearest_top1 %d, %d sample rows; want %d, %d, %d",
				g.Name, g.Trials, g.NearestTop1, len(g.Samples), w.Trials, w.NearestTop1, len(w.Samples))
			continue
		}
		for j, ws := range w.Samples {
			gs := g.Samples[j]
			for _, f := range []struct {
				name      string
				got, want int
			}{
				{"samples", gs.Samples, ws.Samples},
				{"likelihood_top1", gs.LikelihoodTop1, ws.LikelihoodTop1},
				{"group_resolved", gs.GroupResolved, ws.GroupResolved},
				{"ambiguity_groups", gs.AmbiguityGroups, ws.AmbiguityGroups},
			} {
				if f.got != f.want {
					v.add("%s row %d: %s %d, want %d", g.Name, j, f.name, f.got, f.want)
				}
			}
			if math.Abs(gs.MeanConfidence-ws.MeanConfidence) >= 1e-6 {
				v.add("%s row %d: mean_confidence %.9f, want %.9f within 1e-6", g.Name, j, gs.MeanConfidence, ws.MeanConfidence)
			}
		}
	}
	return v.err("tolerance reproduction")
}

func TestCheckedInReports(t *testing.T) {
	var sparse sparseReport
	for file, rep := range map[string]interface{ check() error }{
		"BENCH_hotpath.json":   new(hotpathReport),
		"BENCH_sparse.json":    &sparse,
		"BENCH_tolerance.json": new(toleranceReport),
	} {
		if err := readReport(checkedIn(file), rep); err != nil {
			t.Fatal(err)
		}
		if err := rep.check(); err != nil {
			t.Errorf("%s: %v", file, err)
		}
	}
	if err := checkNumericFloor(&sparse); err != nil {
		t.Errorf("BENCH_sparse.json: %v", err)
	}
}

// The tolerance report carries no timings, only seeded counts, so a
// regeneration at the checked-in seed must reproduce it.
func TestToleranceReportReproduces(t *testing.T) {
	var want toleranceReport
	if err := readReport(checkedIn("BENCH_tolerance.json"), &want); err != nil {
		t.Fatal(err)
	}
	r, _ := newTestRunner()
	r.seed = want.Seed
	r.report = filepath.Join(t.TempDir(), "BENCH_tolerance.json")
	if err := r.tolerance(); err != nil {
		t.Fatal(err)
	}
	var got toleranceReport
	if err := readReport(r.report, &got); err != nil {
		t.Fatal(err)
	}
	if err := compareTolerance(&got, &want); err != nil {
		t.Fatal(err)
	}
}

// decoded decodes data into a fresh report and passes it to f.
func decoded[R any](data []byte, f func(*R) error) error {
	rep := new(R)
	if err := json.Unmarshal(data, rep); err != nil {
		return err
	}
	return f(rep)
}

// jsonObj is a report or one of its entries, decoded generically so a
// test can change or delete any key.
type jsonObj = map[string]any

// find returns the object in m[list] whose key field is name.
func find(m jsonObj, list, key, name string) jsonObj {
	for _, e := range m[list].([]any) {
		if e := e.(jsonObj); e[key] == name {
			return e
		}
	}
	panic(fmt.Sprintf("no %s %q in %s", key, name, list))
}

// drop removes the objects in m[list] whose key field is in names.
func drop(m jsonObj, list, key string, names ...string) {
	var kept []any
	for _, e := range m[list].([]any) {
		if !slices.Contains(names, e.(jsonObj)[key].(string)) {
			kept = append(kept, e)
		}
	}
	m[list] = kept
}

// row returns sample row i of a tolerance CUT.
func row(cut jsonObj, i int) jsonObj { return cut["samples"].([]any)[i].(jsonObj) }

// scale multiplies the number at e[key] by f.
func scale(e jsonObj, key string, f float64) { e[key] = e[key].(float64) * f }

// Each case injects one regression into a copy of a checked-in report
// and wants the invariant, floor, reproduction rule or gate clause that
// guards it to fail, naming itself. The unmodified copy must pass.
func TestReportChecksRejectRegressions(t *testing.T) {
	var tolWant toleranceReport
	if err := readReport(checkedIn("BENCH_tolerance.json"), &tolWant); err != nil {
		t.Fatal(err)
	}
	// The gates run against the checked-in reports at CI's tolerances.
	hotGate, _ := newTestRunner()
	hotGate.gate, hotGate.gateTol = checkedIn("BENCH_hotpath.json"), 0.10
	sparseGate, _ := newTestRunner()
	sparseGate.gate, sparseGate.gateTol = checkedIn("BENCH_sparse.json"), 0.30

	hotCheck := func(d []byte) error { return decoded(d, (*hotpathReport).check) }
	hotGated := func(d []byte) error { return decoded(d, hotGate.gateHotpath) }
	sparseCheck := func(d []byte) error { return decoded(d, (*sparseReport).check) }
	sparseFloor := func(d []byte) error { return decoded(d, checkNumericFloor) }
	sparseGated := func(d []byte) error { return decoded(d, sparseGate.gateSparse) }
	tolCheck := func(d []byte) error { return decoded(d, (*toleranceReport).check) }
	tolRepro := func(d []byte) error {
		return decoded(d, func(got *toleranceReport) error { return compareTolerance(got, &tolWant) })
	}
	hot := func(m jsonObj, name string) jsonObj { return find(m, "entries", "name", name) }
	cut := func(m jsonObj, name string) jsonObj { return find(m, "entries", "cut", name) }
	tol := func(m jsonObj, name string) jsonObj { return find(m, "cuts", "name", name) }

	cases := []struct {
		name   string
		file   string
		run    func([]byte) error
		inject func(m jsonObj)
		want   string
	}{
		// (*hotpathReport).check
		{"hotpath entry missing", "BENCH_hotpath.json", hotCheck,
			func(m jsonObj) { drop(m, "entries", "name", "ga_paper_params") }, "entry ga_paper_params missing"},
		{"hotpath entry untimed", "BENCH_hotpath.json", hotCheck,
			func(m jsonObj) { hot(m, "trajectory_build")["ns_per_op"] = 0 }, "trajectory_build has no timing"},
		{"fitness_eval allocates", "BENCH_hotpath.json", hotCheck,
			func(m jsonObj) { hot(m, "fitness_eval")["allocs_per_op"] = 1 }, "fitness_eval allocates 1 allocs/op"},

		// gateHotpath
		{"gate: fitness_eval slower", "BENCH_hotpath.json", hotGated,
			func(m jsonObj) { scale(hot(m, "fitness_eval"), "ns_per_op", 1.12) }, "fitness_eval regressed"},
		{"gate: trajectory_build slower", "BENCH_hotpath.json", hotGated,
			func(m jsonObj) { scale(hot(m, "trajectory_build"), "ns_per_op", 1.12) }, "trajectory_build regressed"},
		{"gate: gated entry missing", "BENCH_hotpath.json", hotGated,
			func(m jsonObj) { drop(m, "entries", "name", "trajectory_build") }, `entry "trajectory_build" missing`},
		{"gate: fitness_eval allocates", "BENCH_hotpath.json", hotGated,
			func(m jsonObj) { hot(m, "fitness_eval")["allocs_per_op"] = 3 }, "fitness_eval allocates 3 allocs/op"},

		// (*sparseReport).check
		{"sparse key deleted", "BENCH_sparse.json", sparseCheck,
			func(m jsonObj) { delete(cut(m, "rc-grid-45"), "dense_ns_per_op") }, "rc-grid-45: missing keys dense_ns_per_op"},
		{"sparse no nonzeros", "BENCH_sparse.json", sparseCheck,
			func(m jsonObj) { cut(m, "rc-ladder-16")["nnz"] = 0 }, "rc-ladder-16: 18 unknowns and 0 nonzeros"},
		{"sparse no unknowns", "BENCH_sparse.json", sparseCheck,
			func(m jsonObj) { cut(m, "rc-ladder-16")["nodes"] = 0 }, "rc-ladder-16: 0 unknowns"},
		{"sparse unknown factor path", "BENCH_sparse.json", sparseCheck,
			func(m jsonObj) { cut(m, "rc-ladder-16")["factor_path"] = "banded" }, `factor_path "banded", want dense or sparse`},
		{"sparse too many supernodes", "BENCH_sparse.json", sparseCheck,
			func(m jsonObj) { cut(m, "rc-ladder-16")["supernodes"] = 19 }, "19 supernodes, want within [1, 18]"},
		{"sparse no supernodes", "BENCH_sparse.json", sparseCheck,
			func(m jsonObj) { cut(m, "rc-ladder-16")["supernodes"] = 0 }, "0 supernodes"},
		{"sparse numeric phase unmeasured", "BENCH_sparse.json", sparseCheck,
			func(m jsonObj) { cut(m, "rc-ladder-16")["numeric_speedup"] = 0 }, "rc-ladder-16: numeric phase not measured"},
		{"sparse crossover too late", "BENCH_sparse.json", sparseCheck,
			func(m jsonObj) { m["crossover_nodes"] = 257 }, "crossover at 257 unknowns"},
		{"sparse never wins", "BENCH_sparse.json", sparseCheck,
			func(m jsonObj) { m["crossover_nodes"] = 0 }, "crossover at 0 unknowns"},
		{"dense picked at 258 unknowns", "BENCH_sparse.json", sparseCheck,
			func(m jsonObj) { cut(m, "rc-ladder-256")["factor_path"] = "dense" }, "auto heuristic picked dense at 258"},
		{"4.9x at 258 unknowns", "BENCH_sparse.json", sparseCheck,
			func(m jsonObj) { cut(m, "rc-ladder-256")["speedup"] = 4.9 }, "sparse speedup 4.9×, want ≥5×"},
		{"numeric collapse at 2026 unknowns", "BENCH_sparse.json", sparseCheck,
			func(m jsonObj) { cut(m, "rc-grid-45")["numeric_speedup"] = 1.9 }, "below the 2× collapse floor"},
		{"one 256+ CUT", "BENCH_sparse.json", sparseCheck,
			func(m jsonObj) {
				drop(m, "entries", "cut", "rc-ladder-512", "rc-grid-16", "rc-grid-32", "rc-grid-45", "rc-grid-64")
			}, "1 CUTs with 256+ unknowns, want at least two"},
		{"one 2000+ CUT", "BENCH_sparse.json", sparseCheck,
			func(m jsonObj) { drop(m, "entries", "cut", "rc-grid-64") }, "1 CUTs with 2000+ unknowns, want at least two"},

		// checkNumericFloor (committed record only)
		{"numeric phase below 3x", "BENCH_sparse.json", sparseFloor,
			func(m jsonObj) {
				cut(m, "rc-grid-45")["numeric_speedup"] = 2.9
				cut(m, "rc-grid-64")["numeric_speedup"] = 2.9
			}, "2.90× below the 3× numeric-phase acceptance floor"},

		// gateSparse
		{"gate: CUT missing", "BENCH_sparse.json", sparseGated,
			func(m jsonObj) { drop(m, "entries", "cut", "opamp-cascade-8") }, "opamp-cascade-8 missing from new report"},
		{"gate: speedup collapsed", "BENCH_sparse.json", sparseGated,
			func(m jsonObj) { scale(cut(m, "rc-ladder-512"), "speedup", 0.6) }, "rc-ladder-512 speedup collapsed"},
		{"gate: numeric speedup collapsed", "BENCH_sparse.json", sparseGated,
			func(m jsonObj) { scale(cut(m, "rc-grid-45"), "numeric_speedup", 0.66) }, "rc-grid-45 numeric speedup collapsed"},
		{"gate: 4.9x at 258 unknowns", "BENCH_sparse.json", sparseGated,
			func(m jsonObj) { cut(m, "rc-ladder-256")["speedup"] = 4.9 }, "sparse speedup 4.9×, want ≥5×"},

		// (*toleranceReport).check
		{"tolerance key deleted", "BENCH_tolerance.json", tolCheck,
			func(m jsonObj) { delete(m, "seed") }, "missing keys seed"},
		{"tolerance no sample counts", "BENCH_tolerance.json", tolCheck,
			func(m jsonObj) { m["sample_counts"] = []int{} }, "empty sample_counts"},
		{"tolerance no CUTs", "BENCH_tolerance.json", tolCheck,
			func(m jsonObj) { m["cuts"] = []any{} }, "no CUT rows"},
		{"tolerance no trials", "BENCH_tolerance.json", tolCheck,
			func(m jsonObj) { tol(m, "rc-ladder-3")["trials"] = 0 }, "rc-ladder-3: no trials"},
		{"tolerance sample row missing", "BENCH_tolerance.json", tolCheck,
			func(m jsonObj) {
				c := tol(m, "mfb-bandpass")
				c["samples"] = c["samples"].([]any)[:3]
			}, "mfb-bandpass: 3 sample rows for 4 sample counts"},
		{"likelihood top-1 negative", "BENCH_tolerance.json", tolCheck,
			func(m jsonObj) { row(tol(m, "khn-lowpass"), 0)["likelihood_top1"] = -1 }, "want 0 ≤ likelihood_top1 -1"},
		{"likelihood top-1 above group-resolved", "BENCH_tolerance.json", tolCheck,
			func(m jsonObj) { row(tol(m, "rlc-notch"), 0)["likelihood_top1"] = 19 }, "likelihood_top1 19 ≤ group_resolved 18"},
		{"group-resolved above trials", "BENCH_tolerance.json", tolCheck,
			func(m jsonObj) { row(tol(m, "rlc-notch"), 1)["group_resolved"] = 21 }, "group_resolved 21 ≤ trials 20"},
		{"mean confidence zero", "BENCH_tolerance.json", tolCheck,
			func(m jsonObj) { row(tol(m, "twin-t-notch"), 2)["mean_confidence"] = 0 }, "mean_confidence 0 outside (0, 1]"},
		{"mean confidence above one", "BENCH_tolerance.json", tolCheck,
			func(m jsonObj) { row(tol(m, "twin-t-notch"), 2)["mean_confidence"] = 1.01 }, "mean_confidence 1.01 outside (0, 1]"},
		{"likelihood below nearest at the largest budget", "BENCH_tolerance.json", tolCheck,
			func(m jsonObj) { tol(m, "sallen-key-lp")["nearest_top1"] = 11 }, "sallen-key-lp: likelihood top-1 10/16 below nearest baseline 11/16"},

		// compareTolerance (reproduction of the committed record)
		{"reproduction: CUT order", "BENCH_tolerance.json", tolRepro,
			func(m jsonObj) {
				cuts := m["cuts"].([]any)
				cuts[0], cuts[1] = cuts[1], cuts[0]
			}, "CUT 0 is sallen-key-lp, want nf-lowpass-7"},
		{"reproduction: CUT missing", "BENCH_tolerance.json", tolRepro,
			func(m jsonObj) { drop(m, "cuts", "name", "rc-ladder-3") }, "8 CUTs, want 9"},
		{"reproduction: trials", "BENCH_tolerance.json", tolRepro,
			func(m jsonObj) { tol(m, "lc-ladder-lp")["trials"] = 21 }, "lc-ladder-lp: trials 21"},
		{"reproduction: nearest top-1", "BENCH_tolerance.json", tolRepro,
			func(m jsonObj) { tol(m, "lc-ladder-lp")["nearest_top1"] = 9 }, "nearest_top1 9"},
		{"reproduction: sample rows", "BENCH_tolerance.json", tolRepro,
			func(m jsonObj) {
				c := tol(m, "lc-ladder-lp")
				c["samples"] = c["samples"].([]any)[1:]
			}, "3 sample rows"},
		{"reproduction: sample count", "BENCH_tolerance.json", tolRepro,
			func(m jsonObj) { row(tol(m, "tow-thomas-lp"), 3)["samples"] = 400 }, "tow-thomas-lp row 3: samples 400, want 200"},
		{"reproduction: likelihood count off by one", "BENCH_tolerance.json", tolRepro,
			func(m jsonObj) { row(tol(m, "tow-thomas-lp"), 2)["likelihood_top1"] = 12 }, "tow-thomas-lp row 2: likelihood_top1 12, want 11"},
		{"reproduction: group-resolved count", "BENCH_tolerance.json", tolRepro,
			func(m jsonObj) { row(tol(m, "tow-thomas-lp"), 0)["group_resolved"] = 32 }, "tow-thomas-lp row 0: group_resolved 32, want 31"},
		{"reproduction: ambiguity groups", "BENCH_tolerance.json", tolRepro,
			func(m jsonObj) { row(tol(m, "twin-t-notch"), 1)["ambiguity_groups"] = 1 }, "twin-t-notch row 1: ambiguity_groups 1, want 2"},
		{"reproduction: mean confidence off by 2e-6", "BENCH_tolerance.json", tolRepro,
			func(m jsonObj) {
				r := row(tol(m, "nf-lowpass-7"), 0)
				r["mean_confidence"] = r["mean_confidence"].(float64) + 2e-6
			}, "nf-lowpass-7 row 0: mean_confidence"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			orig, err := os.ReadFile(checkedIn(c.file))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.run(orig); err != nil {
				t.Fatalf("unmodified %s fails: %v", c.file, err)
			}
			var m jsonObj
			if err := json.Unmarshal(orig, &m); err != nil {
				t.Fatal(err)
			}
			c.inject(m)
			data, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			err = c.run(data)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one naming %q", err, c.want)
			}
		})
	}
}
