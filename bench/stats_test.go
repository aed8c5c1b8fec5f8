package main

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
		{[]float64{2.5, 1.5, 9, 4, 7, 6.5, 3, 8, 8.5, 0.5, 11}, [3]float64{2.5, 6.5, 8.5}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 57, 100, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending input: tail must sort
		}
		v, pct, got := tail(xs)
		if got != n {
			t.Fatalf("n = %d, want %d", got, n)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", n, beyond, tailBeyond)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); math.Abs(pct-want) > 1e-9 {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
	if v, pct, _ := tail([]float64{3, 9, 1}); v != 9 || pct != 100 {
		t.Errorf("tail of 3 samples = %v at p%v, want the maximum at p100", v, pct)
	}
}

// fakeClock advances only when the generator sleeps or a test stalls it.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration    { return c.t }
func (c *fakeClock) sleep(d time.Duration) { c.t += d }

func TestDispatchCountsStallsFromDueTime(t *testing.T) {
	ms := time.Millisecond
	dues := []time.Duration{0, 1 * ms, 2 * ms, 3 * ms, 4 * ms, 5 * ms, 6 * ms, 7 * ms, 8 * ms, 9 * ms}
	clk := &fakeClock{}
	reqs := make([]request, len(dues))
	dispatch(clk, dues, func(i int, sent time.Duration) {
		reqs[i] = request{due: dues[i], sent: sent, start: sent, done: sent + ms, ok: true}
		if i == 2 {
			clk.t += 5 * ms // the generator is descheduled right after request 2
		}
	})
	for i, r := range reqs {
		wantSent := dues[i]
		if i >= 3 && i <= 7 {
			wantSent = 7 * ms // overdue requests go out together when it resumes
		}
		if r.sent != wantSent {
			t.Errorf("request %d sent at %v, want %v", i, r.sent, wantSent)
		}
	}
	s := summarizeStep(reqs, 10*ms, 20*ms, time.Second)
	// Latency from due: 1 ms for the five on time, 1+4..1+0 ms for the
	// five delayed by the stall (due 3..7 ms, sent at 7 ms).
	if s.P50 != 1 || s.P99 != 5 {
		t.Errorf("p50/p99 = %v/%v ms, want 1/5 (a stall delays requests due during it)", s.P50, s.P99)
	}
	if s.LateP99 != 4 {
		t.Errorf("late p99 = %v ms, want 4", s.LateP99)
	}
	if s.HandlerP50 != 1 {
		t.Errorf("handler p50 = %v ms, want 1", s.HandlerP50)
	}
}

func TestSummarizeStepGoodputAndFailures(t *testing.T) {
	ms := time.Millisecond
	var reqs []request
	for i := 0; i < 6; i++ { // within the limit
		reqs = append(reqs, request{due: time.Duration(i) * ms, sent: time.Duration(i) * ms, start: time.Duration(i) * ms, done: time.Duration(i+2) * ms, ok: true})
	}
	reqs = append(reqs,
		request{due: 10 * ms, sent: 10 * ms, start: 10 * ms, done: 40 * ms, ok: true}, // answered too late
		request{due: 11 * ms, sent: 11 * ms, start: 11 * ms, done: 12 * ms},           // refused
		request{due: 12 * ms, sent: 12 * ms, start: 12 * ms, done: 1012 * ms},         // timed out
	)
	s := summarizeStep(reqs, 500*ms, 20*ms, time.Second)
	if s.Sent != 9 || s.Failed != 2 {
		t.Errorf("sent/failed = %d/%d, want 9/2", s.Sent, s.Failed)
	}
	if s.Goodput != 12 {
		t.Errorf("goodput = %v/s, want 6 replies in 0.5 s = 12/s", s.Goodput)
	}
	if s.P99 != 1000 {
		t.Errorf("p99 = %v ms, want the 1000 ms timeout a failed request counts as", s.P99)
	}
	if got := failedShare(s.Sent, s.Failed); math.Abs(got-2.0/9) > 1e-12 {
		t.Errorf("failed share = %v, want 2/9", got)
	}
	if failedShare(0, 0) != 0 {
		t.Error("failed share of nothing attempted must be 0")
	}
}

func TestPoissonDuesRate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	span := 10 * time.Second
	dues := poissonDues(rng.ExpFloat64, 1000, span)
	if n := float64(len(dues)); math.Abs(n-10000) > 300 {
		t.Errorf("%v arrivals in 10 s at 1000/s", n)
	}
	for i, d := range dues {
		if d >= span || (i > 0 && d < dues[i-1]) {
			t.Fatalf("due %d = %v out of order or past the span", i, d)
		}
	}
}

func TestTraceSelfTimeAndUnattributed(t *testing.T) {
	tc := newTracer(100)
	tr := tc.newTrace(true)
	// root [0,100) with two overlapping parallel children [10,40) and
	// [30,60); the first has a child [15,20).
	tr.record(1, 0, "op", 0, 100)
	tr.record(2, 1, "a", 10, 40)
	tr.record(3, 1, "b", 30, 60)
	tr.record(4, 2, "leaf", 15, 20)
	tr.finish()
	if got := tc.stat("a"); got.SelfNs != 25 || got.TotalNs != 30 {
		t.Errorf("a: self %d total %d, want 25 and 30", got.SelfNs, got.TotalNs)
	}
	if got := tc.stat("op"); got.SelfNs != 50 {
		t.Errorf("op self %d, want 50 (children cover [10,60))", got.SelfNs)
	}
	if got := tc.unattributedShare(); got != 0.5 {
		t.Errorf("unattributed share %v, want 0.5", got)
	}
	probe := tc.newTrace(false)
	probe.record(5, 0, "probe", 200, 300)
	probe.finish()
	if got := tc.unattributedShare(); got != 0.5 {
		t.Errorf("a probe trace changed the unattributed share to %v", got)
	}
	if len(tc.kept) != 5 {
		t.Errorf("kept %d spans, want all 5 within the budget", len(tc.kept))
	}
}

func TestFillReportsEveryNameAndRejectsStrays(t *testing.T) {
	r := newResult("x")
	if err := r.fill(endToEnd, map[string]float64{"setup_s": 1}); err != nil {
		t.Fatal(err)
	}
	if len(r.Metrics) != len(endToEnd) || r.Metrics["alloc_mb_per_op"].Unit != "MB" {
		t.Errorf("metrics %v do not cover the catalogue", r.Metrics)
	}
	if err := r.fill(endToEnd, map[string]float64{"not_a_metric": 1}); err == nil {
		t.Error("a metric outside the catalogue was accepted")
	}
}
