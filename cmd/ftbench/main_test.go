package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func newTestRunner() (*runner, *bytes.Buffer) {
	var buf bytes.Buffer
	return &runner{ctx: context.Background(), seed: 1, full: false, out: &buf}, &buf
}

func TestE1OutputShape(t *testing.T) {
	r, buf := newTestRunner()
	if err := r.e1Dictionary(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"golden", "-40%", "+40%", "Fig.1", "R3@-40%"} {
		if !strings.Contains(out, frag) {
			t.Errorf("E1 output missing %q", frag)
		}
	}
}

func TestE2OutputShape(t *testing.T) {
	r, buf := newTestRunner()
	if err := r.e2Transform(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"A1", "B2", "origin"} {
		if !strings.Contains(out, frag) {
			t.Errorf("E2 output missing %q", frag)
		}
	}
}

func TestE3DiagnosesCorrectly(t *testing.T) {
	r, buf := newTestRunner()
	if err := r.e3Trajectory(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "CORRECT") {
		t.Fatalf("E3 did not diagnose correctly:\n%s", out)
	}
	if !strings.Contains(out, "Fig.3") {
		t.Error("E3 chart missing")
	}
}

func TestE4ReachesHighFitness(t *testing.T) {
	r, buf := newTestRunner()
	if err := r.e4GA(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fitness = 1.0000") {
		t.Fatalf("E4 did not reach fitness 1:\n%s", out)
	}
}

func TestE13GridAblation(t *testing.T) {
	r, buf := newTestRunner()
	if err := r.e13Grid(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"5% steps", "10% steps (paper)", "endpoints only"} {
		if !strings.Contains(out, frag) {
			t.Errorf("E13 output missing %q", frag)
		}
	}
}

func TestE14Deployed(t *testing.T) {
	r, buf := newTestRunner()
	if err := r.e14Deployed(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "export grid") {
		t.Error("E14 output malformed")
	}
}

func TestStepsGrid(t *testing.T) {
	g := stepsGrid(0.1, 0.4)
	if len(g) != 8 {
		t.Fatalf("paper grid = %v", g)
	}
	for _, d := range g {
		if d == 0 {
			t.Fatal("zero deviation in grid")
		}
	}
}

func TestFmtOmegas(t *testing.T) {
	if got := fmtOmegas([]float64{0.5, 2}); got != "0.5, 2" {
		t.Fatalf("fmtOmegas = %q", got)
	}
}

func TestHotpathWritesReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmarks; skipped in -short mode")
	}
	r, buf := newTestRunner()
	r.report = filepath.Join(t.TempDir(), "BENCH_hotpath.json")
	if err := r.hotpath(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(r.report)
	if err != nil {
		t.Fatal(err)
	}
	var rep hotpathReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	want := map[string]bool{"fitness_eval": false, "trajectory_build": false, "ga_paper_params": false}
	for _, e := range rep.Entries {
		want[e.Name] = true
		if e.NsPerOp <= 0 || e.N <= 0 {
			t.Errorf("entry %s has non-positive measurements: %+v", e.Name, e)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("report is missing entry %q", name)
		}
	}
	if !strings.Contains(buf.String(), "wrote") {
		t.Error("hotpath did not report its output path")
	}
}

// TestAllGolden pins `ftbench -e all` byte for byte: E1–E15 run in
// allExperiments order through one runner, as main runs them, and the
// output must equal testdata/all.golden. Other architectures may fuse
// multiply-adds and move a printed digit, so the pin holds on amd64
// only.
func TestAllGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("output is pinned on amd64, not %s", runtime.GOARCH)
	}
	r, buf := newTestRunner()
	experiments := r.experiments()
	for _, name := range allExperiments {
		if err := experiments[name](); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "all.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("output differs from testdata/all.golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output has %d lines, testdata/all.golden %d", len(gl), len(wl))
	}
}
