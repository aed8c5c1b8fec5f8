package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the benchmark definition, read from the repository
// root where the benchmark runs.
const benchmarkFile = "BENCHMARK.json"

// benchmarkSpec is the part of BENCHMARK.json compare needs: each
// end-to-end metric's direction and bound.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// minPairs is how many parent/change pairs a gain needs; winShare is the
// share of them the change must win.
const (
	minPairs = 10
	winShare = 0.9
)

// failedShareBound is how far the failed share (failed ÷ attempted, all
// runs of a side pooled) may rise, in absolute terms, before a change
// counts as a regression.
const failedShareBound = 0.001

// runCompare is the compare subcommand:
//
//	bench compare parent/*.json change/*.json
//
// Results files are grouped by directory, the first directory named
// being the parent. Run i of the parent pairs with run i of the change
// (files in name order), so record the runs alternating which side goes
// first. It prints one row per workload and metric with each side's
// median and quartiles and a verdict, and reports a regression when an
// end-to-end metric worsened past its bound or the change failed more
// operations than the parent by more than failedShareBound. A change that
// fails more operations than the parent gains nothing on that workload.
func runCompare(args []string, stdout io.Writer) (regressed bool, err error) {
	data, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return false, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", benchmarkFile, err)
	}
	var dirs []string
	byDir := map[string][]string{}
	for _, f := range args {
		d := filepath.Dir(f)
		if _, ok := byDir[d]; !ok {
			dirs = append(dirs, d)
		}
		byDir[d] = append(byDir[d], f)
	}
	if len(dirs) != 2 {
		return false, fmt.Errorf("want results files from exactly two directories (parent, change), got %d", len(dirs))
	}
	parent, err := loadRuns(byDir[dirs[0]])
	if err != nil {
		return false, err
	}
	change, err := loadRuns(byDir[dirs[1]])
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "parent %s (%d runs), change %s (%d runs)\n", dirs[0], len(byDir[dirs[0]]), dirs[1], len(byDir[dirs[1]]))
	fmt.Fprintf(stdout, "%-11s %-30s %-32s %-32s %7s %5s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "Δ", "wins", "verdict")
	bounds := map[string]int{}
	for i, m := range spec.EndToEnd {
		bounds[m.Name] = i
	}
	keys := make([][2]string, 0, len(parent.values))
	for k := range parent.values {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		p, c := parent.values[key], change.values[key]
		if len(c) == 0 {
			continue
		}
		verdict, wins := "(no bound)", "-"
		if i, ok := bounds[key[1]]; ok {
			m := spec.EndToEnd[i]
			v, w := judge(p, c, m.Better == "higher", m.Bound)
			if v == "gain" && change.failed[key[0]].share() > parent.failed[key[0]].share() {
				v = "no gain: more failed ops"
			}
			verdict, wins = v, fmt.Sprintf("%d/%d", w, min(len(p), len(c)))
			regressed = regressed || v == "REGRESSION"
		}
		pq1, pq2, pq3 := quartiles(p)
		cq1, cq2, cq3 := quartiles(c)
		delta := "-"
		if pq2 != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(cq2-pq2)/math.Abs(pq2))
		}
		fmt.Fprintf(stdout, "%-11s %-30s %-32s %-32s %7s %5s  %s\n", key[0], key[1],
			fmt.Sprintf("%.4g [%.4g, %.4g]", pq2, pq1, pq3), fmt.Sprintf("%.4g [%.4g, %.4g]", cq2, cq1, cq3),
			delta, wins, verdict)
	}
	for _, w := range sortedKeys(parent.failed) {
		pf, cf := parent.failed[w], change.failed[w]
		if cf.attempted == 0 {
			continue
		}
		v := judgeFailures(pf, cf)
		regressed = regressed || v == "REGRESSION"
		fmt.Fprintf(stdout, "%-11s %-30s %-32s %-32s %7s %5s  %s\n", w, "failed_share",
			fmt.Sprintf("%.4g (%d of %d)", pf.share(), pf.failed, pf.attempted),
			fmt.Sprintf("%.4g (%d of %d)", cf.share(), cf.failed, cf.attempted),
			fmt.Sprintf("%+.4f", cf.share()-pf.share()), "-", v)
	}
	return regressed, nil
}

// judge applies the acceptance rule to one metric. It is "unresolved"
// when either side's spread exceeds the bound (or "better in every run"
// when every change run beats every parent run); a "REGRESSION" when
// the change median is worse than the parent median by more than the
// bound; a "gain" when the change wins at least nine in ten of at least
// ten pairs and the medians differ by more than the parent's
// interquartile range; otherwise "no change". wins counts the pairs the
// change won; ties count for neither.
func judge(parent, change []float64, higher bool, bound float64) (verdict string, wins int) {
	better := func(a, b float64) bool { // a better than b
		if higher {
			return a > b
		}
		return a < b
	}
	n := min(len(parent), len(change))
	for i := 0; i < n; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	pq1, pm, pq3 := quartiles(parent)
	cm := median(change)
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	worse := cm - pm
	if higher {
		worse = -worse
	}
	switch {
	case spread(parent) > bound || spread(change) > bound:
		if allBetter {
			return "better in every run", wins
		}
		return "unresolved", wins
	case worse > bound*math.Abs(pm):
		return "REGRESSION", wins
	case n >= minPairs && float64(wins) >= winShare*float64(n) && math.Abs(cm-pm) > pq3-pq1 && worse < 0:
		return "gain", wins
	}
	return "no change", wins
}

// failCount pools the operations of one workload over a side's runs.
type failCount struct{ attempted, failed int }

func (f failCount) share() float64 { return failedShare(f.attempted, f.failed) }

// judgeFailures is a "REGRESSION" when the change's failed share exceeds
// the parent's by more than failedShareBound, "more failed ops" when it is
// higher by less, and otherwise "no change".
func judgeFailures(parent, change failCount) string {
	switch d := change.share() - parent.share(); {
	case d > failedShareBound:
		return "REGRESSION"
	case d > 0:
		return "more failed ops"
	}
	return "no change"
}

// runSet is one side of a comparison: metric values keyed by (workload,
// metric), one value per file in file-name order — the bounded metrics
// and the numbers printed beside them — and the operations each workload
// attempted and failed.
type runSet struct {
	values map[[2]string][]float64
	failed map[string]failCount
}

// loadRuns reads one side's results files.
func loadRuns(files []string) (runSet, error) {
	sort.Strings(files)
	rs := runSet{values: map[[2]string][]float64{}, failed: map[string]failCount{}}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return runSet{}, err
		}
		var rf resultsFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return runSet{}, fmt.Errorf("%s: %w", f, err)
		}
		for _, w := range rf.Workloads {
			fc := rs.failed[w.Workload]
			fc.attempted += w.Attempted
			fc.failed += w.Failed
			rs.failed[w.Workload] = fc
			for _, set := range []map[string]metricValue{w.Metrics, w.Extra} {
				for name, v := range set {
					if name == "failed_share" {
						continue // judged from the pooled counts
					}
					key := [2]string{w.Workload, name}
					rs.values[key] = append(rs.values[key], v.Value)
				}
			}
		}
	}
	return rs, nil
}
