package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro"
	"repro/internal/serve"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestJoinFloats(t *testing.T) {
	if got := joinFloats([]float64{0.5, 2}); got != "0.5, 2" {
		t.Fatalf("joinFloats = %q", got)
	}
}

func TestBuildSessionFromBenchmark(t *testing.T) {
	s, err := buildSession("nf-lowpass-7", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if s.CUT().Circuit.Name() != "nf-lowpass-7" {
		t.Fatal("wrong benchmark")
	}
	if _, err := buildSession("nope", "", "", ""); err == nil {
		t.Fatal("bogus benchmark accepted")
	}
	if _, err := buildSession("", "/does/not/exist.cir", "V1", "out"); err == nil {
		t.Fatal("missing netlist file accepted")
	}
}

func TestBuildSessionFromNetlistFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rc.cir")
	nl := "rc\nV1 in 0 1\nR1 in out 1k\nC1 out 0 1u\n"
	if err := os.WriteFile(path, []byte(nl), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := buildSession("", path, "V1", "out")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.CUT().Passives) != 2 {
		t.Fatalf("passives = %v", s.CUT().Passives)
	}
}

func TestChooseFrequenciesExplicit(t *testing.T) {
	s, err := buildSession("nf-lowpass-7", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	got, err := chooseFrequencies(ctx, s, "0.5, 2.0", 1, false, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0.5 || got[1] != 2 {
		t.Fatalf("freqs = %v", got)
	}
	if _, err := chooseFrequencies(ctx, s, "abc", 1, false, true); err == nil {
		t.Fatal("bad freq accepted")
	}
}

func TestExportDictionaryWritesArtifact(t *testing.T) {
	cut, err := repro.BenchmarkByName("sallen-key-lp")
	if err != nil {
		t.Fatal(err)
	}
	s, err := repro.NewSession(cut)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dict.json")
	if err := exportDictionary(context.Background(), s, path, []float64{0.56, 4.55}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"sallen-key-lp"`) {
		t.Fatal("export missing circuit name")
	}
	if !strings.Contains(string(data), `"golden"`) {
		t.Fatal("export missing golden row")
	}
	if !strings.Contains(string(data), `"checksum"`) || !strings.Contains(string(data), `"version"`) {
		t.Fatal("export missing artifact envelope")
	}
	// The artifact round-trips through the session loader, with the
	// explicit test frequencies merged into the grid exactly.
	ex, err := s.LoadDictionary(path)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Circuit != "sallen-key-lp" {
		t.Fatalf("loaded circuit = %q", ex.Circuit)
	}
	if off := serve.OffGridFrequencies(ex, []float64{0.56, 4.55}); off != nil {
		t.Fatalf("merged test frequencies missing from grid: %v", off)
	}
}

// TestDiagnoseJSONGolden pins the -json output for a fixed test vector
// and injected fault against a golden file (regenerate with -update).
func TestDiagnoseJSONGolden(t *testing.T) {
	s, err := buildSession("nf-lowpass-7", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	omegas := []float64{0.56, 4.55} // known zero-intersection vector
	dg, fit, err := diagnoser(ctx, s, "", omegas, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	data, err := diagnoseJSON(ctx, s, dg, omegas, fit, repro.Fault{Component: "R3", Deviation: 0.25}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')

	golden := filepath.Join("testdata", "diagnose_r3p25.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	// Structure and strings must match exactly; numbers within 1e-9
	// relative tolerance (FMA contraction on some architectures shifts
	// LU-solve results by an ulp, which would break a byte comparison).
	var gotV, wantV any
	if err := json.Unmarshal(data, &gotV); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &wantV); err != nil {
		t.Fatal(err)
	}
	if diff := jsonDiff("$", gotV, wantV); diff != "" {
		t.Fatalf("-json output drifted from golden file at %s\n got: %s\nwant: %s", diff, data, want)
	}

	// The envelope is a valid artifact of the report kind.
	var env struct {
		Kind     string          `json:"kind"`
		Version  int             `json:"version"`
		Checksum string          `json:"checksum"`
		Payload  json.RawMessage `json:"payload"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if env.Kind != repro.KindDiagnosisReport || env.Version != 1 || env.Checksum != s.Checksum() {
		t.Fatalf("bad envelope: %+v", env)
	}
	var rep diagReport
	if err := json.Unmarshal(env.Payload, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Result.Best().Component != "R3" {
		t.Fatalf("diagnosis = %q, want R3", rep.Result.Best().Component)
	}
	if rep.Rejected == nil || *rep.Rejected {
		t.Fatal("genuine single fault must not be rejected")
	}
}

// jsonDiff compares decoded JSON values: structure, keys, strings and
// bools exactly, numbers to 1e-9 relative tolerance. It returns the
// path of the first mismatch, or "".
func jsonDiff(path string, got, want any) string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok || len(g) != len(w) {
			return path
		}
		for k, wv := range w {
			gv, ok := g[k]
			if !ok {
				return path + "." + k
			}
			if d := jsonDiff(path+"."+k, gv, wv); d != "" {
				return d
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return path
		}
		for i := range w {
			if d := jsonDiff(fmt.Sprintf("%s[%d]", path, i), g[i], w[i]); d != "" {
				return d
			}
		}
	case float64:
		g, ok := got.(float64)
		if !ok {
			return path
		}
		scale := math.Max(math.Abs(g), math.Abs(w))
		if scale > 0 && math.Abs(g-w)/scale > 1e-9 {
			return path
		}
	default:
		if got != want {
			return path
		}
	}
	return ""
}

// TestLoadDictionaryFlow pins the -load-dictionary path: a diagnoser
// rebuilt from a saved grid artifact (no re-simulation) diagnoses an
// injected fault identically to the live pipeline.
func TestLoadDictionaryFlow(t *testing.T) {
	s, err := buildSession("nf-lowpass-7", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	omegas := []float64{0.56, 4.55}
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := s.SaveDictionary(ctx, path, omegas); err != nil {
		t.Fatal(err)
	}

	dg, ex, err := serve.DiagnoserFromGrid(s, path, omegas)
	if err != nil {
		t.Fatal(err)
	}
	if off := serve.OffGridFrequencies(ex, omegas); off != nil {
		t.Fatalf("off-grid frequencies %v on an exact-grid artifact", off)
	}
	if n := dg.Map().Intersections(); n != 0 {
		t.Fatalf("loaded map intersections = %d, want 0 on the known-good vector", n)
	}
	f := repro.Fault{Component: "R3", Deviation: 0.25}
	got, err := dg.DiagnoseSet(s.Dictionary(), f)
	if err != nil {
		t.Fatal(err)
	}
	liveDG, err := s.Diagnoser(ctx, omegas)
	if err != nil {
		t.Fatal(err)
	}
	want, err := liveDG.DiagnoseSet(s.Dictionary(), f)
	if err != nil {
		t.Fatal(err)
	}
	gj, _ := json.Marshal(got)
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Fatalf("artifact-loaded diagnosis drifted from live:\n got: %s\nwant: %s", gj, wj)
	}

	// The artifact step feeds the shared report without error, and a
	// stale artifact (different CUT) is rejected. The report's stdout
	// goes to /dev/null, not the test log.
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devnull.Close()
	realStdout := os.Stdout
	os.Stdout = devnull
	defer func() { os.Stdout = realStdout }()
	dg, fit, err := diagnoser(ctx, s, path, omegas, devnull)
	if err != nil {
		t.Fatal(err)
	}
	if err := report(ctx, s, dg, omegas, fit, "R3@+25%", 0.02, false, true); err != nil {
		t.Fatal(err)
	}
	other, err := buildSession("sallen-key-lp", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := diagnoser(ctx, other, path, omegas, devnull); !errors.Is(err, repro.ErrStaleArtifact) {
		t.Fatalf("stale artifact err = %v, want ErrStaleArtifact", err)
	}
}

// TestArtifactFitnessMatchesLive: the -load-dictionary step reports the
// fitness Session.Fitness and the live step report, also from a
// double-fault artifact, whose map carries pair families the GA's
// intersection count never sees.
func TestArtifactFitnessMatchesLive(t *testing.T) {
	ctx := context.Background()
	for _, doubles := range []bool{false, true} {
		var opts []repro.Option
		if doubles {
			opts = append(opts, repro.WithDoubleFaults(0))
		}
		s, err := buildSession("nf-lowpass-7", "", "", "", opts...)
		if err != nil {
			t.Fatal(err)
		}
		// The first vector's single-fault map has no intersection, the
		// second's has some.
		for _, omegas := range [][]float64{{0.56, 4.55}, {2, 3}} {
			path := filepath.Join(t.TempDir(), "grid.json")
			if err := s.SaveDictionary(ctx, path, omegas); err != nil {
				t.Fatal(err)
			}
			want, err := s.Fitness(ctx, omegas)
			if err != nil {
				t.Fatal(err)
			}
			for _, grid := range []string{"", path} {
				dg, fit, err := diagnoser(ctx, s, grid, omegas, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if fit != want {
					t.Errorf("doubles=%v ω=%v grid=%q: fitness %g, Session.Fitness %g", doubles, omegas, grid, fit, want)
				}
				if pairs := len(dg.Map().Trajectories) > len(s.Universe().Components); pairs != doubles {
					t.Errorf("doubles=%v grid=%q: map has %d trajectories", doubles, grid, len(dg.Map().Trajectories))
				}
			}
		}
	}
}

// TestEvaluateJSONShape sanity-checks the evaluation report payload.
func TestEvaluateJSONShape(t *testing.T) {
	s, err := buildSession("nf-lowpass-7", "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	omegas := []float64{0.56, 4.55}
	dg, fit, err := diagnoser(ctx, s, "", omegas, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	data, err := evaluateJSON(ctx, s, dg, omegas, fit, false)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Payload json.RawMessage `json:"payload"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	var rep diagReport
	if err := json.Unmarshal(env.Payload, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Eval == nil || rep.Eval.Total == 0 {
		t.Fatalf("evaluation payload empty: %+v", rep)
	}
	if rep.Eval.Accuracy() < 0.9 {
		t.Fatalf("accuracy = %g, want >= 0.9 on the known-good vector", rep.Eval.Accuracy())
	}
}

// TestDiagnoseProbJSONGolden pins the -json envelope of a
// tolerance-aware run: the probabilistic fields (confidence,
// likelihoods, ambiguity_group) ride inside the same artifact payload
// as the classic diagnosis. Regenerate with -update.
func TestDiagnoseProbJSONGolden(t *testing.T) {
	s, err := repro.NewSession(repro.PaperCUT(),
		repro.WithTolerance(repro.Tolerance{Sigma: 0.05}, 64),
		repro.WithToleranceSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	omegas := []float64{0.56, 4.55}
	dg, fit, err := diagnoser(ctx, s, "", omegas, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	data, err := diagnoseJSON(ctx, s, dg, omegas, fit, repro.Fault{Component: "R3", Deviation: 0.25}, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')

	golden := filepath.Join("testdata", "diagnose_r3p25_prob.golden.json")
	if *update {
		if err := os.WriteFile(golden, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	var gotV, wantV any
	if err := json.Unmarshal(data, &gotV); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &wantV); err != nil {
		t.Fatal(err)
	}
	if diff := jsonDiff("$", gotV, wantV); diff != "" {
		t.Fatalf("probabilistic -json output drifted from golden file at %s\n got: %s\nwant: %s", diff, data, want)
	}

	var env struct {
		Payload json.RawMessage `json:"payload"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	var rep diagReport
	if err := json.Unmarshal(env.Payload, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Confidence == nil || *rep.Confidence <= 0 || *rep.Confidence > 1 {
		t.Fatalf("confidence = %v", rep.Confidence)
	}
	if len(rep.Likelihoods) == 0 || rep.Likelihoods[0].Key != "R3" {
		t.Fatalf("likelihoods = %+v, want R3 on top", rep.Likelihoods)
	}
}

// TestWriteTrace pins the -trace dump: a traced session run writes a
// JSON file whose spans include the session stages.
func TestWriteTrace(t *testing.T) {
	tr := repro.NewTracer()
	s, err := repro.NewSession(repro.PaperCUT(), repro.WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fitness(context.Background(), []float64{0.56, 4.55}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Spans []repro.TraceSpan `json:"spans"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	found := false
	for _, sp := range dump.Spans {
		if sp.Name == "session.dictionary" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no session.dictionary span in %s", data)
	}
}

// TestZeroTestFrequencyRefusedBeforeBuild runs the command with a DC
// test frequency: it must exit 1 naming -freqs before building the
// session (which would print the circuit line), and -export, whose
// dictionary grid may hold DC, must still accept 0 in the parser.
func TestZeroTestFrequencyRefusedBeforeBuild(t *testing.T) {
	if os.Getenv("FTDIAG_TEST_MAIN") == "1" {
		os.Args = []string{"ftdiag", "-cut", "nf-lowpass-7", "-freqs", "0,4.55", "-inject", "R3@+25%"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestZeroTestFrequencyRefusedBeforeBuild$")
	cmd.Env = append(os.Environ(), "FTDIAG_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("ftdiag -freqs 0,4.55: err = %v, want exit 1; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "-freqs") || strings.Contains(string(out), "circuit:") {
		t.Fatalf("want a -freqs refusal before the session is built; output:\n%s", out)
	}
	if _, err := parseTestFreqs("0,4.55"); !errors.Is(err, repro.ErrBadConfig) {
		t.Fatalf("parseTestFreqs(0,4.55) err = %v, want ErrBadConfig", err)
	}
	if _, err := repro.ParseFrequencies("0,4.55"); err != nil {
		t.Fatalf("ParseFrequencies refused DC for a grid: %v", err)
	}
}
