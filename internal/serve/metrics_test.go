package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// promSeries is a parsed Prometheus text payload: plain series by name
// (labels included in the key) plus histogram buckets in rendered order.
type promSeries struct {
	values  map[string]float64
	buckets map[string][]promBucket // histogram name → buckets in order
}

type promBucket struct {
	le    string
	count float64
}

// parseProm parses the Prometheus text format, failing the test on any
// line that is neither a comment nor a `name[{labels}] value` sample.
func parseProm(t *testing.T, text string) promSeries {
	t.Helper()
	out := promSeries{values: map[string]float64{}, buckets: map[string][]promBucket{}}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, valueStr, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable metrics line: %q", line)
		}
		v, err := strconv.ParseFloat(valueStr, 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		if base, rest, isBucket := strings.Cut(name, "_bucket{le="); isBucket {
			le := strings.TrimSuffix(rest, "}")
			le, err = strconv.Unquote(le)
			if err != nil {
				t.Fatalf("bad le label in %q: %v", line, err)
			}
			out.buckets[base] = append(out.buckets[base], promBucket{le: le, count: v})
			continue
		}
		out.values[name] = v
	}
	return out
}

// histogramCounterPairs maps each latency histogram to the counter its
// _count must track: the observation happens on the same code path,
// after the counter increment.
var histogramCounterPairs = map[string]string{
	"ftserve_request_seconds":     "ftserve_requests_total",
	"ftserve_queue_wait_seconds":  "ftserve_batched_requests_total",
	"ftserve_batch_flush_seconds": "ftserve_batches_total",
	"ftserve_build_seconds":       "ftserve_builds_total",
}

// checkPromInvariants verifies structural invariants of a /metrics
// payload: every histogram's buckets are cumulative (monotone
// non-decreasing) ending in le="+Inf" equal to its _count, and every
// histogram _count is at most its paired _total (equal when quiescent,
// which exact reports).
func checkPromInvariants(t *testing.T, p promSeries, exact bool) {
	t.Helper()
	for hist, bs := range p.buckets {
		prev := -1.0
		for _, b := range bs {
			if b.count < prev {
				t.Errorf("%s buckets not monotone: le=%s count %g < %g", hist, b.le, b.count, prev)
			}
			prev = b.count
		}
		if len(bs) == 0 || bs[len(bs)-1].le != "+Inf" {
			t.Errorf("%s does not end in a +Inf bucket", hist)
			continue
		}
		count, ok := p.values[hist+"_count"]
		if !ok {
			t.Errorf("%s has buckets but no _count", hist)
			continue
		}
		if bs[len(bs)-1].count != count {
			t.Errorf("%s +Inf bucket %g != _count %g", hist, bs[len(bs)-1].count, count)
		}
		if _, ok := p.values[hist+"_sum"]; !ok {
			t.Errorf("%s has no _sum", hist)
		}
	}
	for hist, total := range histogramCounterPairs {
		c, ok := p.values[hist+"_count"]
		if !ok {
			t.Errorf("missing %s_count", hist)
			continue
		}
		tv, ok := p.values[total]
		if !ok {
			t.Errorf("missing %s", total)
			continue
		}
		if exact && c != tv {
			t.Errorf("%s_count = %g, want %s = %g", hist, c, total, tv)
		}
		if c > tv {
			t.Errorf("%s_count = %g ran ahead of %s = %g", hist, c, total, tv)
		}
	}
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// fetchQuiescentMetrics polls /metrics until the deferred batch-flush
// observation (recorded after responses are delivered) has landed, so
// the paired-counter invariants can be asserted exactly.
func fetchQuiescentMetrics(t *testing.T, url string) promSeries {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		p := parseProm(t, string(getBody(t, url+"/metrics")))
		if p.values["ftserve_batch_flush_seconds_count"] == p.values["ftserve_batches_total"] {
			return p
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never quiesced: flush count %g, batches %g",
				p.values["ftserve_batch_flush_seconds_count"], p.values["ftserve_batches_total"])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// statsPayload mirrors the /v1/stats reply shape for decoding.
type statsPayload struct {
	UptimeSeconds int64 `json:"uptime_seconds"`
	Metrics       struct {
		Requests        int64 `json:"requests_total"`
		Batches         int64 `json:"batches_total"`
		BatchedRequests int64 `json:"batched_requests_total"`
		Builds          int64 `json:"builds_total"`
		RequestSeconds  struct {
			Count int64   `json:"count"`
			P50   float64 `json:"p50"`
			P99   float64 `json:"p99"`
		} `json:"request_seconds"`
		BuildSeconds struct {
			Count int64 `json:"count"`
		} `json:"build_seconds"`
	} `json:"metrics"`
	Engine struct {
		DenseFactors           int64 `json:"dense_factors"`
		SparseFactors          int64 `json:"sparse_factors"`
		Rank1Solves            int64 `json:"rank1_solves"`
		ExactFallbacks         int64 `json:"exact_fallbacks"`
		MemoMisses             int64 `json:"memo_misses"`
		SupernodalRefactors    int64 `json:"supernodal_refactors"`
		PartialRefactors       int64 `json:"partial_refactors"`
		PartialRefactorColumns int64 `json:"partial_refactor_columns"`
		DenseFallbackExact     int64 `json:"dense_fallback_exact"`
		DenseFallbackSingular  int64 `json:"dense_fallback_singular"`
		SparseVectorColumns    int64 `json:"sparse_vector_columns"`
	} `json:"engine"`
}

// TestServerMetricsAndStats is the golden observability test: after one
// diagnosis, /metrics exposes the latency histograms and engine path
// counters with all structural invariants holding exactly, and
// /v1/stats reports the same story as JSON.
func TestServerMetricsAndStats(t *testing.T) {
	_, ts := testServer(t, Config{})
	status, body := postJSON(t, ts.URL+"/v1/diagnose", map[string]any{
		"cut":   "nf-lowpass-7",
		"fault": map[string]any{"component": "R3", "deviation": 0.25},
	})
	if status != 200 {
		t.Fatalf("diagnose status = %d: %s", status, body)
	}

	p := fetchQuiescentMetrics(t, ts.URL)
	checkPromInvariants(t, p, true)
	for _, series := range []string{
		"ftserve_requests_total",
		"ftserve_request_seconds_count",
		"ftserve_queue_wait_seconds_count",
		"ftserve_batch_flush_seconds_count",
		"ftserve_engine_solve_seconds_count",
		"ftserve_build_seconds_count",
		"ftserve_engine_dense_factors_total",
		"ftserve_engine_rank1_solves_total",
		"ftserve_engine_memo_misses_total",
		"ftserve_engine_supernodal_refactors_total",
		"ftserve_engine_partial_refactors_total",
		"ftserve_engine_partial_refactor_columns_total",
		"ftserve_engine_dense_fallback_exact_total",
		"ftserve_engine_dense_fallback_singular_total",
		"ftserve_engine_sparse_vector_columns_total",
	} {
		if _, ok := p.values[series]; !ok {
			t.Errorf("missing series %s", series)
		}
	}
	if p.values["ftserve_requests_total"] != 1 || p.values["ftserve_request_seconds_count"] != 1 {
		t.Errorf("one request should yield requests_total 1 (got %g) and request_seconds_count 1 (got %g)",
			p.values["ftserve_requests_total"], p.values["ftserve_request_seconds_count"])
	}
	if p.values["ftserve_engine_solve_seconds_count"] < 1 {
		t.Errorf("engine_solve_seconds_count = %g, want >= 1", p.values["ftserve_engine_solve_seconds_count"])
	}
	// The entry build simulated the dictionary, so the engine counters
	// must show real work.
	if p.values["ftserve_engine_dense_factors_total"] < 1 || p.values["ftserve_engine_rank1_solves_total"] < 1 {
		t.Errorf("engine counters empty: dense %g rank1 %g",
			p.values["ftserve_engine_dense_factors_total"], p.values["ftserve_engine_rank1_solves_total"])
	}

	var st statsPayload
	if err := json.Unmarshal(getBody(t, ts.URL+"/v1/stats"), &st); err != nil {
		t.Fatalf("/v1/stats does not parse: %v", err)
	}
	if st.Metrics.Requests != 1 || st.Metrics.RequestSeconds.Count != 1 {
		t.Errorf("/v1/stats requests = %d, request_seconds.count = %d, want 1/1",
			st.Metrics.Requests, st.Metrics.RequestSeconds.Count)
	}
	if st.Metrics.Builds != 1 || st.Metrics.BuildSeconds.Count != 1 {
		t.Errorf("/v1/stats builds = %d, build_seconds.count = %d, want 1/1",
			st.Metrics.Builds, st.Metrics.BuildSeconds.Count)
	}
	if st.Engine.DenseFactors < 1 || st.Engine.Rank1Solves < 1 || st.Engine.MemoMisses < 1 {
		t.Errorf("/v1/stats engine counters empty: %+v", st.Engine)
	}
	if st.Metrics.RequestSeconds.P99 < st.Metrics.RequestSeconds.P50 {
		t.Errorf("p99 %g < p50 %g", st.Metrics.RequestSeconds.P99, st.Metrics.RequestSeconds.P50)
	}
	if got := p.values["ftserve_engine_dense_factors_total"]; got != float64(st.Engine.DenseFactors) {
		// Quiescent server: both endpoints must agree.
		t.Errorf("dense factors disagree: /metrics %g, /v1/stats %d", got, st.Engine.DenseFactors)
	}
	// Supernodal/partial-refactor counter invariants: each supernodal
	// refactor is a sparse factorization; each partial refactor serves an
	// exact fallback and re-eliminates at least one column; each dense
	// fallback is a dense factorization.
	e := st.Engine
	if e.SupernodalRefactors > e.SparseFactors {
		t.Errorf("supernodal_refactors %d > sparse_factors %d", e.SupernodalRefactors, e.SparseFactors)
	}
	// Every sparse-vector column is a refactored sparse golden column.
	if e.SparseVectorColumns > e.SupernodalRefactors {
		t.Errorf("sparse_vector_columns %d > supernodal_refactors %d", e.SparseVectorColumns, e.SupernodalRefactors)
	}
	if e.PartialRefactors > e.ExactFallbacks {
		t.Errorf("partial_refactors %d > exact_fallbacks %d", e.PartialRefactors, e.ExactFallbacks)
	}
	if e.PartialRefactorColumns < e.PartialRefactors {
		t.Errorf("partial_refactor_columns %d < partial_refactors %d", e.PartialRefactorColumns, e.PartialRefactors)
	}
	if e.DenseFallbackExact+e.DenseFallbackSingular > e.DenseFactors {
		t.Errorf("dense fallback split %d+%d exceeds dense_factors %d",
			e.DenseFallbackExact, e.DenseFallbackSingular, e.DenseFactors)
	}
	for name, v := range map[string]int64{
		"supernodal_refactors":     e.SupernodalRefactors,
		"partial_refactors":        e.PartialRefactors,
		"partial_refactor_columns": e.PartialRefactorColumns,
		"dense_fallback_exact":     e.DenseFallbackExact,
		"dense_fallback_singular":  e.DenseFallbackSingular,
		"sparse_vector_columns":    e.SparseVectorColumns,
	} {
		if v < 0 {
			t.Errorf("engine counter %s negative: %d", name, v)
		}
		if got := p.values["ftserve_engine_"+name+"_total"]; got != float64(v) {
			t.Errorf("%s disagrees: /metrics %g, /v1/stats %d", name, got, v)
		}
	}
}

// TestServerStatsMethodNotAllowed pins /v1/stats as a GET endpoint.
func TestServerStatsMethodNotAllowed(t *testing.T) {
	_, ts := testServer(t, Config{})
	status, _ := postJSON(t, ts.URL+"/v1/stats", map[string]any{})
	if status != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats = %d, want 405", status)
	}
}

// TestServerMetricsRaceHammer drives concurrent fault and point
// diagnoses while readers render /metrics and /v1/stats, verifying the
// structural invariants hold on every concurrent snapshot. Pinned in
// the CI race job: `go test -race` must stay clean here.
func TestServerMetricsRaceHammer(t *testing.T) {
	const (
		writers   = 6
		perWriter = 4
		readers   = 2
		perReader = 10
	)
	_, ts := testServer(t, Config{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				dev := 0.1 + 0.05*float64((w+i)%5)
				status, body := postJSON(t, ts.URL+"/v1/diagnose", map[string]any{
					"cut":   "nf-lowpass-7",
					"fault": map[string]any{"component": "R3", "deviation": dev},
				})
				if status != 200 {
					t.Errorf("diagnose status = %d: %s", status, body)
				}
			}
		}(w)
	}
	errCh := make(chan string, readers*perReader)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perReader; i++ {
				text := string(getBody(t, ts.URL+"/metrics"))
				p := parseProm(t, text)
				// Mid-load snapshots satisfy the weak invariants
				// (count <= total, monotone buckets); exact equality
				// only holds quiescent.
				checkPromInvariants(t, p, false)
				var st statsPayload
				if err := json.Unmarshal(getBody(t, ts.URL+"/v1/stats"), &st); err != nil {
					errCh <- fmt.Sprintf("stats parse: %v", err)
					return
				}
				if st.Metrics.RequestSeconds.Count > st.Metrics.Requests {
					errCh <- fmt.Sprintf("request_seconds.count %d > requests_total %d",
						st.Metrics.RequestSeconds.Count, st.Metrics.Requests)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for msg := range errCh {
		t.Error(msg)
	}

	p := fetchQuiescentMetrics(t, ts.URL)
	checkPromInvariants(t, p, true)
	want := float64(writers * perWriter)
	if p.values["ftserve_requests_total"] != want {
		t.Errorf("requests_total = %g, want %g", p.values["ftserve_requests_total"], want)
	}
	// Coalescing bookkeeping: every accepted request was flushed through
	// some batch.
	if p.values["ftserve_batched_requests_total"] != want {
		t.Errorf("batched_requests_total = %g, want %g", p.values["ftserve_batched_requests_total"], want)
	}
}
