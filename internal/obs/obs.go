// Package obs is the repository's observability kernel: fixed-bucket
// lock-free latency histograms rendered in the Prometheus text format,
// and lightweight wall-clock spans with a nil-safe no-op default. It is
// deliberately small and allocation-conscious — the serving layer
// records into histograms from request handlers and batcher workers
// without locks, and the engine's hot path pays only a nil pointer
// check when no tracer is installed.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// LatencyBounds is the fixed bucket layout every Histogram uses: upper
// bounds in seconds, ascending, spanning sub-millisecond engine solves
// through multi-minute GA entry builds. An implicit +Inf bucket catches
// the rest. A fixed layout keeps the Histogram's zero value ready to
// use (no constructor, no lazy initialization race) and makes every
// rendered series directly comparable.
var LatencyBounds = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// numBuckets counts the finite buckets plus the +Inf overflow bucket.
const numBuckets = len(LatencyBounds) + 1

// Histogram is a fixed-bucket latency histogram with lock-free atomic
// buckets. The zero value is ready to use; any number of goroutines may
// Observe concurrently with renders. The total observation count is
// derived from the buckets at snapshot time (not kept as a separate
// counter), so a rendered _count always equals the sum of its rendered
// buckets even under concurrent recording.
type Histogram struct {
	buckets  [numBuckets]atomic.Int64
	sumNanos atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveSeconds(d.Seconds())
}

// ObserveSeconds records one latency given in seconds. Negative or NaN
// values clamp into the first bucket (clock adjustments mid-measurement
// must not corrupt the distribution's shape).
func (h *Histogram) ObserveSeconds(s float64) {
	if math.IsNaN(s) || s < 0 {
		s = 0
	}
	i := 0
	for i < len(LatencyBounds) && s > LatencyBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sumNanos.Add(int64(s * 1e9))
}

// Bucket is one cumulative histogram bucket of a snapshot: the count of
// observations at or below the upper bound LE (seconds).
type Bucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// Snapshot is a point-in-time view of a Histogram, JSON-ready. Buckets
// are cumulative and cover the finite bounds only; Count is the grand
// total including the +Inf overflow bucket, so Count ≥ the last
// bucket's count and equals the Prometheus _count series.
type Snapshot struct {
	Buckets []Bucket `json:"buckets"`
	Count   int64    `json:"count"`
	// Sum is the total observed time in seconds (the _sum series).
	Sum float64 `json:"sum_seconds"`
	// P50/P90/P99 are interpolated quantile estimates (seconds), zero
	// when the histogram is empty. Estimates, not exact order
	// statistics: linear interpolation inside the winning bucket, the
	// same model promQL's histogram_quantile uses.
	P50 float64 `json:"p50_seconds"`
	P90 float64 `json:"p90_seconds"`
	P99 float64 `json:"p99_seconds"`
}

// Snapshot captures the histogram's current state. Buckets are read
// once each; the total is derived from that read, so the snapshot's
// internal invariants (cumulative monotone, Count == sum of raw
// buckets) hold even while writers race the read.
func (h *Histogram) Snapshot() Snapshot {
	var raw [numBuckets]int64
	for i := range raw {
		raw[i] = h.buckets[i].Load()
	}
	s := Snapshot{
		Buckets: make([]Bucket, len(LatencyBounds)),
		Sum:     float64(h.sumNanos.Load()) / 1e9,
	}
	var cum int64
	for i, b := range LatencyBounds {
		cum += raw[i]
		s.Buckets[i] = Bucket{LE: b, Count: cum}
	}
	s.Count = cum + raw[numBuckets-1]
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	return s
}

// Quantile estimates the p-quantile (0 ≤ p ≤ 1) in seconds from the
// snapshot's buckets, interpolating linearly inside the winning bucket.
// Observations in the +Inf bucket clamp to the largest finite bound; an
// empty snapshot returns 0.
func (s Snapshot) Quantile(p float64) float64 {
	if s.Count == 0 || len(s.Buckets) == 0 {
		return 0
	}
	rank := p * float64(s.Count)
	var prevCum int64
	prevLE := 0.0
	for _, b := range s.Buckets {
		if float64(b.Count) >= rank {
			in := b.Count - prevCum
			if in <= 0 {
				return b.LE
			}
			frac := (rank - float64(prevCum)) / float64(in)
			return prevLE + (b.LE-prevLE)*frac
		}
		prevCum, prevLE = b.Count, b.LE
	}
	// The rank lands in the +Inf bucket: clamp to the largest bound.
	return LatencyBounds[len(LatencyBounds)-1]
}

// WriteSnapshotPrometheus renders an already-captured snapshot — the
// path for callers that render several series from one consistent
// capture.
func WriteSnapshotPrometheus(w io.Writer, name, help string, s Snapshot) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	for _, b := range s.Buckets {
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, strconv.FormatFloat(b.LE, 'g', -1, 64), b.Count)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
	fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, s.Sum, name, s.Count)
}

// Span is one finished timed region of a trace: wall-clock start offset
// from the tracer's creation and duration, both in milliseconds.
type Span struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"duration_ms"`
}

// Tracer collects spans. The nil *Tracer is the no-op default: every
// method is nil-safe, StartSpan on a nil tracer returns a handle whose
// End does nothing and allocates nothing — the contract that lets the
// engine's per-frequency hot path carry instrumentation sites at zero
// steady-state cost.
type Tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty trace; span offsets are measured from now.
func NewTracer() *Tracer { return &Tracer{origin: time.Now()} }

// SpanHandle is an in-flight span. The zero handle (from a nil tracer)
// is valid and End on it is a no-op.
type SpanHandle struct {
	t     *Tracer
	name  string
	begin time.Time
}

// StartSpan opens a span. Nil-safe: a nil tracer returns the no-op
// handle without reading the clock.
func (t *Tracer) StartSpan(name string) SpanHandle {
	if t == nil {
		return SpanHandle{}
	}
	return SpanHandle{t: t, name: name, begin: time.Now()}
}

// End closes the span and records it on its tracer. Safe from any
// goroutine; a no-op on the zero handle.
func (sp SpanHandle) End() {
	if sp.t == nil {
		return
	}
	now := time.Now()
	s := Span{
		Name:    sp.name,
		StartMS: float64(sp.begin.Sub(sp.t.origin)) / float64(time.Millisecond),
		DurMS:   float64(now.Sub(sp.begin)) / float64(time.Millisecond),
	}
	sp.t.mu.Lock()
	sp.t.spans = append(sp.t.spans, s)
	sp.t.mu.Unlock()
}

// Spans returns a copy of the recorded spans in End order. Nil-safe.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// traceDump is the JSON shape WriteJSON emits.
type traceDump struct {
	Spans []Span `json:"spans"`
}

// WriteJSON dumps the trace as {"spans": [...]}, one object per span in
// End order. Nil-safe (writes an empty trace).
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(traceDump{Spans: t.Spans()})
}
