package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testSizes shrinks every workload to a smoke run: three GA runs,
// rc-grid-16, opamp-cascade-8 pairs and 0.4 s open-loop serve steps. The
// benchmark's own circuits (rc-grid-32 and larger) never run under go
// test.
func testSizes() sizes {
	return sizes{
		gaRuns:   3,
		gaChecks: 1,

		gridCUT:    "rc-grid-16",
		gridOmegas: 8,
		gridChecks: 2,
		gridOps:    2,

		pairsCUT:    "opamp-cascade-8",
		pairsStride: 5,
		pairsOmegas: 4,
		pairsChecks: 4,
		pairsOps:    3,

		serveRates:    []float64{250, 500},
		serveOpenStep: 400 * time.Millisecond,
		serveClients:  4,
		servePool:     256,
	}
}

// TestWorkloadsSmoke runs every workload, untraced and traced, through
// every output check on tiny inputs.
func TestWorkloadsSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{seed: 3, seconds: 1500 * time.Millisecond, trace: traced, workers: 2}
			defs := endToEnd
			if traced {
				// The traced serve run adds an untraced baseline of the
				// busy step; 0.8 s is left for saturation.
				o.seconds = 2 * time.Second
				o.spans = filepath.Join(t.TempDir(), "spans.json")
				defs = perLayer
			}
			r, err := w.run(context.Background(), o, testSizes())
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s (traced %v): correct=%v attempted=%d failed=%d problems=%v",
					w.name, traced, r.Correct, r.Attempted, r.Failed, r.Problems)
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s (traced %v): %d metrics, want %d", w.name, traced, len(r.Metrics), len(defs))
			}
			if !traced {
				for name, v := range r.Metrics {
					if !(v.Value > 0) {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, name, v.Value)
					}
				}
				continue
			}
			checkSpanDump(t, o.spans)
		}
	}
	t.Logf("smoke run took %v, peak RSS %.0f MB", time.Since(start), peakRSSMB())
	if rss := peakRSSMB(); rss > 300 {
		t.Errorf("peak RSS %.0f MB, want under 300", rss)
	}
}

// checkSpanDump checks that a traced run wrote linked spans.
func checkSpanDump(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Spans []spanRecord `json:"spans"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatal(err)
	}
	ids := map[uint64]spanRecord{}
	for _, s := range dump.Spans {
		ids[s.ID] = s
	}
	if len(ids) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for _, s := range dump.Spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := ids[s.Parent]
		if !ok || p.Trace != s.Trace {
			t.Fatalf("%s: span %d (%s) has no parent %d in its trace", path, s.ID, s.Name, s.Parent)
		}
	}
}

// TestMetricCatalogMatchesBenchmarkJSON pins the metric names, units and
// workloads the program reports to the ones BENCHMARK.json declares.
func TestMetricCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metricDef, names, units []string) {
		if len(got) != len(names) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(names), len(got))
			return
		}
		for i, d := range got {
			if d.name != names[i] || d.unit != units[i] {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, names[i], units[i], d.name, d.unit)
			}
		}
	}
	var names, units []string
	for _, m := range spec.EndToEnd {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("end_to_end", endToEnd, names, units)
	names, units = nil, nil
	for _, m := range spec.PerLayer {
		names, units = append(names, m.Name), append(units, m.Unit)
	}
	check("per_layer", perLayer, names, units)
	if got := strings.Join(spec.Paths, ","); got != "bench" {
		t.Errorf("paths = %q, want the benchmark's own directory", got)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the program measures %d", spec.RunSeconds, runSeconds)
	}
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := make([]float64, len(base))
	slower := make([]float64, len(base))
	for i, v := range base {
		faster[i], slower[i] = v*0.8, v*1.3
	}
	noisy := []float64{50, 150, 60, 140, 100, 100, 70, 130, 90, 110}
	for _, c := range []struct {
		name           string
		parent, change []float64
		higher         bool
		want           string
	}{
		{"same", base, base, false, "no change"},
		{"lower is better and it fell", base, faster, false, "gain"},
		{"lower is better and it rose", base, slower, false, "REGRESSION"},
		{"higher is better and it rose", base, slower, true, "gain"},
		{"spread beyond the bound", noisy, base, false, "unresolved"},
		{"too few pairs", base[:5], faster[:5], false, "no change"},
	} {
		if got, _ := judge(c.parent, c.change, c.higher, 0.1); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFailedOps(t *testing.T) {
	for _, c := range []struct {
		name           string
		parent, change failCount
		want           string
	}{
		{"none failed", failCount{1000, 0}, failCount{1000, 0}, "no change"},
		{"fewer failed", failCount{1000, 3}, failCount{1000, 1}, "no change"},
		{"one more in ten thousand", failCount{10000, 0}, failCount{10000, 1}, "more failed ops"},
		{"two more in a thousand", failCount{1000, 0}, failCount{1000, 2}, "REGRESSION"},
	} {
		if got := judgeFailures(c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCompareRejectsMoreFailures runs compare on results files where the
// change is faster in every run but fails more operations: it must
// report a regression and no gain.
func TestCompareRejectsMoreFailures(t *testing.T) {
	dir := t.TempDir()
	write := func(side string, i int, rate float64, failed int) string {
		r := newResult("dict-pairs")
		r.Attempted, r.Failed = 100, failed
		if err := r.fill(endToEnd, map[string]float64{"setup_s": 0.003, "ops_per_s": rate, "alloc_mb_per_op": 12.6}); err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(resultsFile{Workloads: []*result{r}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, side, fmt.Sprintf("run%02d.json", i))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var files []string
	for i := 0; i < minPairs; i++ {
		files = append(files, write("parent", i, 60+0.1*float64(i%3), 0))
	}
	for i := 0; i < minPairs; i++ {
		files = append(files, write("change", i, 80+0.1*float64(i%3), 1))
	}
	// compare reads BENCHMARK.json from the repository root.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var out strings.Builder
	regressed, err := runCompare(files, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Errorf("a change failing 1%% of ops passed:\n%s", out.String())
	}
	s := out.String()
	for _, line := range strings.Split(s, "\n") {
		if strings.HasSuffix(line, "  gain") {
			t.Errorf("a change failing more ops was credited with a gain:\n%s", s)
		}
	}
	if !strings.Contains(s, "no gain: more failed ops") {
		t.Errorf("the faster change's throughput row does not name the failed ops:\n%s", s)
	}
}
