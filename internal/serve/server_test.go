package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Build.Freqs == nil {
		cfg.Build = BuildConfig{Workers: 1, Freqs: []float64{0.56, 4.55}, Scheduler: cfg.Build.Scheduler}
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func TestServerHealthz(t *testing.T) {
	_, ts := testServer(t, Config{Version: "test-build"})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var h struct {
		Status  string `json:"status"`
		Version string `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version != "test-build" {
		t.Fatalf("healthz = %+v", h)
	}
}

func TestServerDiagnoseFault(t *testing.T) {
	_, ts := testServer(t, Config{})
	status, body := postJSON(t, ts.URL+"/v1/diagnose", map[string]any{
		"cut":          "nf-lowpass-7",
		"fault":        map[string]any{"component": "R3", "deviation": 0.25},
		"reject_ratio": 0.02,
	})
	if status != 200 {
		t.Fatalf("status = %d: %s", status, body)
	}
	var rep diagnoseReply
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Result == nil || rep.Result.Best().Component != "R3" {
		t.Fatalf("diagnosis = %s", body)
	}
	if rep.Rejected == nil || *rep.Rejected {
		t.Fatal("genuine single fault must not be rejected")
	}
	if rep.BatchSize < 1 || len(rep.Omegas) != 2 {
		t.Fatalf("reply metadata: %s", body)
	}
}

func TestServerDiagnosePoint(t *testing.T) {
	s, ts := testServer(t, Config{})
	// Simulate the observation the tester would measure for R3@+25%.
	entry, err := s.Registry().Get(context.Background(), "nf-lowpass-7")
	if err != nil {
		t.Fatal(err)
	}
	sig, err := entry.Session.Dictionary().Signature(repro.Fault{Component: "R3", Deviation: 0.25}, entry.Omegas)
	if err != nil {
		t.Fatal(err)
	}
	status, body := postJSON(t, ts.URL+"/v1/diagnose", map[string]any{
		"cut":   "nf-lowpass-7",
		"point": sig,
	})
	if status != 200 {
		t.Fatalf("status = %d: %s", status, body)
	}
	var rep diagnoseReply
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Result.Best().Component != "R3" {
		t.Fatalf("point diagnosis = %s", body)
	}
}

func TestServerErrorMapping(t *testing.T) {
	_, ts := testServer(t, Config{})
	cases := []struct {
		name string
		body any
		want int
	}{
		{"unknown CUT", map[string]any{"cut": "nope", "fault": map[string]any{"component": "R1", "deviation": 0.2}}, 404},
		// A family size past the circuits cap (10¹⁰ unknowns) is refused
		// at name resolution, before any circuit is constructed.
		{"oversized family CUT", map[string]any{"cut": "rc-grid-100000", "fault": map[string]any{"component": "Rh0x0", "deviation": 0.2}}, 404},
		{"unknown component", map[string]any{"cut": "nf-lowpass-7", "fault": map[string]any{"component": "R99", "deviation": 0.2}}, 404},
		{"bad point dimension", map[string]any{"cut": "nf-lowpass-7", "point": []float64{1, 2, 3}}, 400},
		{"empty request", map[string]any{"cut": "nf-lowpass-7"}, 400},
		{"deviation out of range", map[string]any{"cut": "nf-lowpass-7", "fault": map[string]any{"component": "R1", "deviation": -1.5}}, 400},
	}
	for _, tc := range cases {
		status, body := postJSON(t, ts.URL+"/v1/diagnose", tc.body)
		if status != tc.want {
			t.Fatalf("%s: status = %d, want %d (%s)", tc.name, status, tc.want, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Fatalf("%s: error body %s", tc.name, body)
		}
	}
	// Malformed JSON → 400.
	resp, err := http.Post(ts.URL+"/v1/diagnose", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("malformed JSON: status = %d", resp.StatusCode)
	}
	// Wrong method → 405.
	resp, err = http.Get(ts.URL + "/v1/diagnose")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET diagnose: status = %d", resp.StatusCode)
	}
}

func TestServerCutsAndMetrics(t *testing.T) {
	_, ts := testServer(t, Config{})
	postJSON(t, ts.URL+"/v1/diagnose", map[string]any{
		"cut":   "nf-lowpass-7",
		"fault": map[string]any{"component": "R3", "deviation": 0.25},
	})

	resp, err := http.Get(ts.URL + "/v1/cuts")
	if err != nil {
		t.Fatal(err)
	}
	var cuts struct {
		Cuts []CatalogEntry `json:"cuts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cuts); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(cuts.Cuts) < 2 {
		t.Fatalf("catalog too small: %+v", cuts.Cuts)
	}
	var loaded *CatalogEntry
	for i := range cuts.Cuts {
		if cuts.Cuts[i].Name == "nf-lowpass-7" {
			loaded = &cuts.Cuts[i]
		} else if cuts.Cuts[i].Loaded {
			t.Fatalf("%s reported loaded without traffic", cuts.Cuts[i].Name)
		}
	}
	if loaded == nil || !loaded.Loaded || len(loaded.Omegas) != 2 || loaded.Origin != "configured" {
		t.Fatalf("loaded entry: %+v", loaded)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"ftserve_requests_total 1", "ftserve_builds_total 1", "ftserve_batches_total"} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestServerConcurrentClientsBitIdentical pins the acceptance criterion:
// 64 concurrent clients on the paper CUT are served through the
// micro-batcher with responses bit-identical to single-request
// diagnosis.
func TestServerConcurrentClientsBitIdentical(t *testing.T) {
	cfg := Config{}
	cfg.Build.Scheduler = SchedulerConfig{FlushWindow: 5 * time.Millisecond, MaxBatch: 32}
	s, ts := testServer(t, cfg)

	// Reference: one-at-a-time serving (MaxBatch 1 batcher on the same
	// entry), keyed by fault ID.
	entry, err := s.Registry().Get(context.Background(), "nf-lowpass-7")
	if err != nil {
		t.Fatal(err)
	}
	single := newBatcher(context.Background(), entry, SchedulerConfig{MaxBatch: 1}, nil)
	defer single.stop()

	comps := entry.Session.CUT().Passives
	devs := []float64{-0.22, -0.13, 0.17, 0.31}
	want := make(map[string]string)
	for _, c := range comps {
		for _, d := range devs {
			resp := single.Diagnose(context.Background(), &Request{Fault: repro.Fault{Component: c, Deviation: d}})
			if resp.Err != nil {
				t.Fatal(resp.Err)
			}
			data, _ := json.Marshal(resp.Result)
			want[fmt.Sprintf("%s@%g", c, d)] = string(data)
		}
	}

	const clients = 64
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			comp := comps[i%len(comps)]
			dev := devs[(i/len(comps))%len(devs)]
			data, _ := json.Marshal(map[string]any{
				"cut":   "nf-lowpass-7",
				"fault": map[string]any{"component": comp, "deviation": dev},
			})
			resp, err := http.Post(ts.URL+"/v1/diagnose", "application/json", bytes.NewReader(data))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != 200 {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			var rep diagnoseReply
			if err := json.Unmarshal(body, &rep); err != nil {
				errs[i] = err
				return
			}
			got, _ := json.Marshal(rep.Result)
			key := fmt.Sprintf("%s@%g", comp, dev)
			if string(got) != want[key] {
				errs[i] = fmt.Errorf("%s drifted under concurrency:\n got: %s\nwant: %s", key, got, want[key])
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	m := s.Metrics()
	if got := m.BatchedRequests.Load(); got < clients {
		t.Fatalf("batched requests = %d, want ≥ %d", got, clients)
	}
}

// TestServerArtifactWarmStart pins the registry's warm-start path: with
// dictionary and test-vector artifacts on disk, a cold request loads
// them instead of re-simulating, and serves bit-identical diagnoses.
func TestServerArtifactWarmStart(t *testing.T) {
	dir := t.TempDir()
	omegas := []float64{0.56, 4.55}
	cut, err := repro.BenchmarkByName("nf-lowpass-7")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := repro.NewSession(cut, repro.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	tm, err := sess.Trajectories(context.Background(), omegas)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SaveTrajectories(filepath.Join(dir, "map.json"), tm); err != nil {
		t.Fatal(err)
	}

	cfg := Config{}
	cfg.Build = BuildConfig{Workers: 1, ArtifactDir: dir}
	s := New(cfg)
	defer s.Close()
	entry, err := s.Registry().Get(context.Background(), "nf-lowpass-7")
	if err != nil {
		t.Fatal(err)
	}
	if entry.Origin != "artifact" {
		t.Fatalf("origin = %q, want artifact", entry.Origin)
	}
	if s.Metrics().WarmStarts.Load() != 1 {
		t.Fatalf("warm starts = %d", s.Metrics().WarmStarts.Load())
	}
	if len(entry.Omegas) != 2 || entry.Omegas[0] != 0.56 {
		t.Fatalf("warm entry omegas = %v", entry.Omegas)
	}
	// The warm-started diagnoser reproduces the live one's answer.
	res, err := entry.Session.DiagnoseFaults(context.Background(), entry.Diagnoser, []repro.Fault{{Component: "C2", Deviation: 0.31}})
	if err != nil {
		t.Fatal(err)
	}
	liveDG, err := sess.Diagnoser(context.Background(), omegas)
	if err != nil {
		t.Fatal(err)
	}
	liveRes, err := sess.DiagnoseFaults(context.Background(), liveDG, []repro.Fault{{Component: "C2", Deviation: 0.31}})
	if err != nil {
		t.Fatal(err)
	}
	gj, _ := json.Marshal(res[0])
	wj, _ := json.Marshal(liveRes[0])
	if string(gj) != string(wj) {
		t.Fatalf("warm-start diagnosis drifted:\n got: %s\nwant: %s", gj, wj)
	}
}

// TestServerDictionaryGridWarmStart exercises the grid + test-vector
// artifact path (no trajectory map on disk).
func TestServerDictionaryGridWarmStart(t *testing.T) {
	dir := t.TempDir()
	omegas := []float64{0.56, 4.55}
	cut, err := repro.BenchmarkByName("nf-lowpass-7")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := repro.NewSession(cut, repro.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SaveDictionary(context.Background(), filepath.Join(dir, "grid.json"), omegas); err != nil {
		t.Fatal(err)
	}
	tv := &repro.TestVector{Omegas: omegas, Fitness: 1}
	if err := sess.SaveTestVector(filepath.Join(dir, "tv.json"), tv); err != nil {
		t.Fatal(err)
	}

	cfg := Config{}
	cfg.Build = BuildConfig{Workers: 1, ArtifactDir: dir}
	s := New(cfg)
	defer s.Close()
	entry, err := s.Registry().Get(context.Background(), "nf-lowpass-7")
	if err != nil {
		t.Fatal(err)
	}
	if entry.Origin != "artifact" {
		t.Fatalf("origin = %q, want artifact", entry.Origin)
	}
	res, err := entry.Session.DiagnoseFaults(context.Background(), entry.Diagnoser, []repro.Fault{{Component: "R3", Deviation: 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Best().Component != "R3" {
		t.Fatalf("warm-start diagnosis = %v", res[0].Best())
	}
}

// TestServerRefusesMalformedArtifacts: a trajectory map with a point of
// the wrong dimension, or a test vector that repeats a frequency, in the
// artifact directory fails that CUT's build with an error reply, and the
// server keeps serving. Before, the map panicked the entry's batcher
// goroutine (and with it the process) on the first diagnosis, and the
// test vector served a map whose every candidate sat at distance 0.
func TestServerRefusesMalformedArtifacts(t *testing.T) {
	cut, err := repro.BenchmarkByName("nf-lowpass-7")
	if err != nil {
		t.Fatal(err)
	}
	sess, err := repro.NewSession(cut, repro.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	shortPoint := func(t *testing.T, dir string) {
		tm, err := sess.Trajectories(context.Background(), []float64{0.56, 4.55})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "map.json")
		if err := sess.SaveTrajectories(path, tm); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var env map[string]any
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		tr := env["payload"].(map[string]any)["trajectories"].([]any)[2].(map[string]any)
		pts := tr["points"].([]any)
		pts[3] = pts[3].([]any)[:1]
		if data, err = json.Marshal(env); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	repeatedFreq := func(t *testing.T, dir string) {
		tv := &repro.TestVector{Omegas: []float64{0.5, 0.5}, Fitness: 1}
		if err := sess.SaveTestVector(filepath.Join(dir, "tv.json"), tv); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name  string
		write func(*testing.T, string)
	}{{"short point", shortPoint}, {"repeated frequency", repeatedFreq}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.write(t, dir)
			cfg := Config{}
			cfg.Build = BuildConfig{Workers: 1, ArtifactDir: dir}
			s := New(cfg)
			ts := httptest.NewServer(s.Handler())
			defer func() {
				ts.Close()
				s.Close()
			}()
			req := map[string]any{"cut": "nf-lowpass-7", "fault": map[string]any{"component": "R3", "deviation": 0.25}}
			for i := 0; i < 2; i++ {
				status, body := postJSON(t, ts.URL+"/v1/diagnose", req)
				if status != http.StatusInternalServerError || !strings.Contains(string(body), "malformed artifact") {
					t.Fatalf("request %d: status %d, body %s; want 500 naming the malformed artifact", i, status, body)
				}
			}
			resp, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("healthz after the refused build: status %d", resp.StatusCode)
			}
		})
	}
}

// TestServerEvictionChurnServes pins the eviction-retry fix: with an
// LRU of one, alternating CUTs evict each other constantly, yet every
// request is served — an eviction racing a handler must retry against
// the rebuilt entry, never surface a spurious 503.
func TestServerEvictionChurnServes(t *testing.T) {
	cfg := Config{Capacity: 1}
	cfg.Build = BuildConfig{Workers: 1, Freqs: []float64{0.56, 4.55}}
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cuts := []string{"nf-lowpass-7", "sallen-key-lp"}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := 0, []byte(nil)
			data, _ := json.Marshal(map[string]any{
				"cut":   cuts[i%2],
				"fault": map[string]any{"component": "R1", "deviation": 0.2},
			})
			resp, err := http.Post(ts.URL+"/v1/diagnose", "application/json", bytes.NewReader(data))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			body, _ = io.ReadAll(resp.Body)
			status = resp.StatusCode
			if status != 200 {
				errs[i] = fmt.Errorf("status %d: %s", status, body)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d under eviction churn: %v", i, err)
		}
	}
	if got := s.Metrics().Evictions.Load(); got < 1 {
		t.Fatalf("evictions = %d, want ≥ 1 (the churn this test exists for)", got)
	}
}

// TestServerShutdownDrain pins the drain contract at the HTTP layer:
// requests in flight when shutdown begins complete before Close.
func TestServerShutdownDrain(t *testing.T) {
	cfg := Config{}
	cfg.Build.Scheduler = SchedulerConfig{FlushWindow: 20 * time.Millisecond, MaxBatch: 64}
	s := New(Config{Build: BuildConfig{Workers: 1, Freqs: []float64{0.56, 4.55}, Scheduler: cfg.Build.Scheduler}})
	ts := httptest.NewServer(s.Handler())

	// Warm the entry so requests go straight to the queue.
	if err := s.Preload(context.Background(), []string{"nf-lowpass-7"}); err != nil {
		t.Fatal(err)
	}

	const n = 8
	type result struct {
		status int
		err    error
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := http.Post(ts.URL+"/v1/diagnose", "application/json",
				strings.NewReader(`{"cut":"nf-lowpass-7","fault":{"component":"R3","deviation":0.25}}`))
			if err != nil {
				results <- result{err: err}
				return
			}
			defer resp.Body.Close()
			io.ReadAll(resp.Body)
			results <- result{status: resp.StatusCode}
		}()
	}
	// Shutdown once every request has been accepted into the batcher
	// queue (many still sitting in the 20ms flush window): Close waits
	// for handlers (ts.Close), then drains the batchers (s.Close).
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Requests.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests accepted", s.Metrics().Requests.Load(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
	ts.Close()
	s.Close()
	for i := 0; i < n; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("request failed at shutdown: %v", r.err)
		}
		if r.status != 200 {
			t.Fatalf("request status %d at shutdown, want 200", r.status)
		}
	}
}

// TestNonFiniteReplyIs422: a point so far out that every distance
// overflows to +Inf (and, with a cloud model, every probability to NaN)
// is answered 422 with a JSON error on /v1/diagnose; on
// /v1/diagnose/batch only that item is, and its neighbor is answered
// normally.
func TestNonFiniteReplyIs422(t *testing.T) {
	far := map[string]any{"point": []float64{1e200, 1e200}}
	r3 := map[string]any{"fault": map[string]any{"component": "R3", "deviation": 0.25}}
	for name, build := range map[string]BuildConfig{
		"plain":  {Workers: 1, Freqs: []float64{0.56, 4.55}},
		"clouds": {Workers: 1, Freqs: []float64{0.56, 4.55}, ToleranceSigma: 0.05, MCSamples: 8, Seed: 1},
	} {
		_, ts := testServer(t, Config{Build: build})
		status, body := postJSON(t, ts.URL+"/v1/diagnose", map[string]any{"cut": "nf-lowpass-7", "point": far["point"]})
		var e struct {
			Error  string `json:"error"`
			Status int    `json:"status"`
		}
		if err := json.Unmarshal(body, &e); err != nil || status != http.StatusUnprocessableEntity || e.Status != status || e.Error == "" {
			t.Fatalf("%s: /v1/diagnose far point: status %d, body %q", name, status, body)
		}
		status, body = postJSON(t, ts.URL+"/v1/diagnose/batch", map[string]any{
			"cut": "nf-lowpass-7", "requests": []any{far, r3},
		})
		var br batchReply
		if err := json.Unmarshal(body, &br); err != nil || status != http.StatusOK || len(br.Results) != 2 {
			t.Fatalf("%s: batch: status %d, body %q", name, status, body)
		}
		if got := br.Results[0]; got.Status != http.StatusUnprocessableEntity || got.Error == "" || got.Result != nil {
			t.Fatalf("%s: batch far item = %+v, want a 422 error", name, got)
		}
		if got := br.Results[1]; got.Error != "" || got.Result == nil || got.Result.Best().Component != "R3" {
			t.Fatalf("%s: batch R3 item = %+v, want a normal diagnosis", name, got)
		}
		if name == "clouds" && br.Results[1].Confidence == nil {
			t.Fatalf("clouds: batch R3 item lost its probabilistic fields: %s", body)
		}
	}
}
