package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketsAndCount(t *testing.T) {
	var h Histogram
	h.ObserveSeconds(0.00005) // first bucket (le 0.0001)
	h.ObserveSeconds(0.0001)  // boundary: still first bucket (le is inclusive)
	h.ObserveSeconds(0.003)   // le 0.005
	h.ObserveSeconds(999)     // +Inf overflow
	h.ObserveSeconds(-1)      // clamps to first bucket
	h.ObserveSeconds(math.NaN())

	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("Count = %d, want 6", s.Count)
	}
	if got := s.Buckets[0].Count; got != 4 {
		t.Errorf("bucket le=0.0001 = %d, want 4", got)
	}
	// Cumulative monotone, and the last finite bucket excludes the overflow.
	prev := int64(0)
	for _, b := range s.Buckets {
		if b.Count < prev {
			t.Fatalf("bucket le=%g count %d < previous %d (not monotone)", b.LE, b.Count, prev)
		}
		prev = b.Count
	}
	if last := s.Buckets[len(s.Buckets)-1].Count; last != 5 {
		t.Errorf("last finite bucket = %d, want 5 (overflow excluded)", last)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	// 100 observations at ~2ms: every quantile must land in (0.001, 0.0025].
	for i := 0; i < 100; i++ {
		h.ObserveSeconds(0.002)
	}
	s := h.Snapshot()
	for _, p := range []float64{0.5, 0.9, 0.99} {
		q := s.Quantile(p)
		if q <= 0.001 || q > 0.0025 {
			t.Errorf("Quantile(%g) = %g, want in (0.001, 0.0025]", p, q)
		}
	}
	if s.P50 != s.Quantile(0.5) {
		t.Errorf("P50 %g != Quantile(0.5) %g", s.P50, s.Quantile(0.5))
	}

	var empty Histogram
	if q := empty.Snapshot().Quantile(0.99); q != 0 {
		t.Errorf("empty Quantile = %g, want 0", q)
	}

	// All observations in overflow clamp to the largest finite bound.
	var over Histogram
	over.ObserveSeconds(500)
	if q := over.Snapshot().Quantile(0.5); q != LatencyBounds[len(LatencyBounds)-1] {
		t.Errorf("overflow Quantile = %g, want %g", q, LatencyBounds[len(LatencyBounds)-1])
	}
}

func TestHistogramPrometheusRender(t *testing.T) {
	var h Histogram
	h.ObserveSeconds(0.002)
	h.ObserveSeconds(3)

	var buf bytes.Buffer
	WriteSnapshotPrometheus(&buf, "test_seconds", "test latency", h.Snapshot())
	out := buf.String()

	for _, want := range []string{
		"# HELP test_seconds test latency",
		"# TYPE test_seconds histogram",
		`test_seconds_bucket{le="0.0025"} 1`,
		`test_seconds_bucket{le="+Inf"} 2`,
		"test_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// _sum ≈ 3.002 seconds.
	if !strings.Contains(out, "test_seconds_sum 3.002") {
		t.Errorf("render missing sum ~3.002:\n%s", out)
	}
}

func TestHistogramObserveZeroAlloc(t *testing.T) {
	var h Histogram
	avg := testing.AllocsPerRun(1000, func() {
		h.ObserveSeconds(0.004)
	})
	if avg != 0 {
		t.Fatalf("ObserveSeconds allocates %.1f allocs/op, want 0", avg)
	}
}

func TestNilTracerNoOpZeroAlloc(t *testing.T) {
	var tr *Tracer
	avg := testing.AllocsPerRun(1000, func() {
		sp := tr.StartSpan("noop")
		sp.End()
	})
	if avg != 0 {
		t.Fatalf("nil-tracer span allocates %.1f allocs/op, want 0", avg)
	}
	if got := tr.Spans(); got != nil {
		t.Fatalf("nil tracer Spans() = %v, want nil", got)
	}
}

func TestTracerRecordsSpans(t *testing.T) {
	tr := NewTracer()
	sp := tr.StartSpan("stage.one")
	time.Sleep(time.Millisecond)
	sp.End()
	tr.StartSpan("stage.two").End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[0].Name != "stage.one" || spans[1].Name != "stage.two" {
		t.Errorf("span names = %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].DurMS <= 0 {
		t.Errorf("stage.one duration %g ms, want > 0", spans[0].DurMS)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var dump struct {
		Spans []Span `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(dump.Spans) != 2 {
		t.Fatalf("JSON has %d spans, want 2", len(dump.Spans))
	}
}

// TestConcurrentHistogramAndSpans hammers one histogram and one tracer
// from many goroutines while a reader renders snapshots — the shape the
// -race CI job pins.
func TestConcurrentHistogramAndSpans(t *testing.T) {
	var h Histogram
	tr := NewTracer()
	const workers, perWorker = 8, 200

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.ObserveSeconds(0.001)
				tr.StartSpan("hammer").End()
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			s := h.Snapshot()
			prev := int64(0)
			for _, b := range s.Buckets {
				if b.Count < prev {
					t.Errorf("concurrent snapshot not monotone at le=%g", b.LE)
					return
				}
				prev = b.Count
			}
			var buf bytes.Buffer
			WriteSnapshotPrometheus(&buf, "hammer_seconds", "h", s)
			_ = tr.Spans()
		}
	}()
	wg.Wait()
	<-done

	if got := h.Snapshot().Count; got != workers*perWorker {
		t.Fatalf("final Count = %d, want %d", got, workers*perWorker)
	}
	if got := len(tr.Spans()); got != workers*perWorker {
		t.Fatalf("final span count = %d, want %d", got, workers*perWorker)
	}
}
