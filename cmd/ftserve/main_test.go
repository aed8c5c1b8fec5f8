package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro"
	"repro/internal/serve"
)

func TestPreloadNames(t *testing.T) {
	if got := preloadNames(""); got != nil {
		t.Fatalf("empty = %v", got)
	}
	if got := preloadNames(" a, b ,"); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("list = %v", got)
	}
	all := preloadNames("all")
	if len(all) < 2 {
		t.Fatalf("all = %v", all)
	}
}

func TestParseFreqs(t *testing.T) {
	got, err := parseFreqs("0.56, 4.55")
	if err != nil || !reflect.DeepEqual(got, []float64{0.56, 4.55}) {
		t.Fatalf("parseFreqs = %v, %v", got, err)
	}
	if _, err := parseFreqs("abc"); err == nil {
		t.Fatal("bad freq accepted")
	}
	if got, err := parseFreqs(" "); got != nil || err != nil {
		t.Fatalf("blank = %v, %v", got, err)
	}
}

// TestRunRefusesZeroTestFrequency: -freqs is every CUT's test vector, so
// a DC entry fails run before anything is built or preloaded, with an
// error naming the flag.
func TestRunRefusesZeroTestFrequency(t *testing.T) {
	err := run(options{addr: "127.0.0.1:0", cuts: "nf-lowpass-7", freqsArg: "0,4.55"}, nil)
	if !errors.Is(err, repro.ErrBadConfig) || !strings.Contains(err.Error(), "-freqs") {
		t.Fatalf("run with -freqs 0,4.55: err = %v, want ErrBadConfig naming -freqs", err)
	}
}

func TestBuildLogger(t *testing.T) {
	for _, ok := range []struct{ level, format string }{
		{"debug", "text"}, {"info", "json"}, {"warn", "text"}, {"error", "json"}, {"", ""},
	} {
		if _, err := buildLogger(ok.level, ok.format); err != nil {
			t.Errorf("buildLogger(%q, %q) = %v", ok.level, ok.format, err)
		}
	}
	if _, err := buildLogger("loud", "text"); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := buildLogger("info", "yaml"); err == nil {
		t.Error("bad format accepted")
	}
}

// TestPprofMux verifies the dedicated profiler mux serves the pprof
// index, and that the service mux never routes profiler paths — the
// profiler is only reachable on its own -pprof-addr listener.
func TestPprofMux(t *testing.T) {
	ts := httptest.NewServer(pprofMux())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("pprof index: %d %.120s", resp.StatusCode, body)
	}

	srv := serve.New(serve.Config{Build: serve.BuildConfig{Freqs: []float64{0.56, 4.55}}})
	defer srv.Close()
	svc := httptest.NewServer(srv.Handler())
	defer svc.Close()
	resp, err = http.Get(svc.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("service port serves /debug/pprof/ with %d, want 404", resp.StatusCode)
	}
}

// TestRunServesAndDrainsOnSIGTERM is the end-to-end smoke: start the
// server on an ephemeral port, serve /healthz and a diagnosis, then send
// the process a real SIGTERM while requests are in flight and assert
// they complete and run returns cleanly.
func TestRunServesAndDrainsOnSIGTERM(t *testing.T) {
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(options{
			addr: "127.0.0.1:0", cuts: "nf-lowpass-7", freqsArg: "0.56,4.55",
			seed: 1, workers: 1, lru: 4, flush: 20 * time.Millisecond,
			maxBatch: 64, queue: 256, drain: 10 * time.Second,
		}, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("run exited early: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("server never became ready")
	}
	base := "http://" + addr

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}

	diagnose := func() (int, []byte, error) {
		resp, err := http.Post(base+"/v1/diagnose", "application/json",
			bytes.NewReader([]byte(`{"cut":"nf-lowpass-7","fault":{"component":"R3","deviation":0.25}}`)))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body, nil
	}
	status, body, err := diagnose()
	if err != nil || status != 200 {
		t.Fatalf("diagnose: %d %s (%v)", status, body, err)
	}
	var rep struct {
		Result struct {
			Candidates []struct {
				Component string `json:"component"`
			} `json:"candidates"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &rep); err != nil || len(rep.Result.Candidates) == 0 || rep.Result.Candidates[0].Component != "R3" {
		t.Fatalf("diagnosis: %s (%v)", body, err)
	}

	// Observability endpoints ride the same listener: /metrics carries
	// the latency histograms and engine counters, /v1/stats the JSON view.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"ftserve_requests_total", "ftserve_request_seconds_bucket",
		"ftserve_queue_wait_seconds_count", "ftserve_engine_rank1_solves_total",
	} {
		if !bytes.Contains(metrics, []byte(series)) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	resp, err = http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	statsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var stats struct {
		Metrics struct {
			Requests       int64 `json:"requests_total"`
			RequestSeconds struct {
				Count int64 `json:"count"`
			} `json:"request_seconds"`
		} `json:"metrics"`
		Engine struct {
			Rank1Solves int64 `json:"rank1_solves"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(statsBody, &stats); err != nil {
		t.Fatalf("/v1/stats does not parse: %v (%s)", err, statsBody)
	}
	if stats.Metrics.Requests < 1 || stats.Metrics.RequestSeconds.Count < 1 || stats.Engine.Rank1Solves < 1 {
		t.Fatalf("/v1/stats counters empty: %s", statsBody)
	}

	// In-flight requests ride out the SIGTERM: fire a burst sitting in
	// the 20ms flush window, signal mid-flight, and require every
	// response.
	const inflight = 8
	var wg sync.WaitGroup
	errs := make([]error, inflight)
	codes := make([]int, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _, errs[i] = diagnose()
		}(i)
	}
	time.Sleep(5 * time.Millisecond)
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i := 0; i < inflight; i++ {
		// A request that lost the race to the closing listener sees a
		// connection error; one that got in must be fully served.
		if errs[i] == nil && codes[i] != 200 {
			t.Fatalf("in-flight request %d: status %d, want 200 (drained) or connection refused", i, codes[i])
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM, want nil (clean drain)", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not exit after SIGTERM")
	}
}
