package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile: below that a percentile is one or two unlucky samples.
const tailBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs, or 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points that split xs into four equal
// groups, by the same "exclusive" method as Python's
// statistics.quantiles(xs, n=4), so spreads computed here match those
// computed from the same values elsewhere.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	cut := func(i int) float64 {
		// j is 1-based and clamped to [1, n-1] before the weights are
		// taken, exactly as Python does (small n extrapolates).
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100).
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(s) {
		k = len(s) - 1
	}
	return s[k]
}

// tail returns the highest percentile of xs that still has tailBeyond
// samples above it: the value, its percentile and the sample count. With
// tailBeyond or fewer samples no percentile qualifies and the maximum is
// returned as the 100th percentile.
func tail(xs []float64) (value, pct float64, n int) {
	s := sorted(xs)
	n = len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n <= tailBeyond {
		return s[n-1], 100, n
	}
	k := n - tailBeyond - 1
	return s[k], 100 * float64(k+1) / float64(n), n
}

// failedShare is failed/attempted, 0 when nothing was attempted.
func failedShare(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// clock is the open-loop generator's time source: a monotonic offset
// from the step start and a sleep. Tests drive the generator with a fake.
type clock interface {
	now() time.Duration
	sleep(d time.Duration)
}

type wallClock struct{ start time.Time }

func (c wallClock) now() time.Duration    { return time.Since(c.start) }
func (c wallClock) sleep(d time.Duration) { time.Sleep(d) }

// dispatch issues request i once its due offset has passed, in due
// order, and reports the offset at which it actually issued it. It
// sleeps only while nothing is due, so after a stall every overdue
// request goes out at once: lateness is recorded per request and the
// latency of each is still measured from its due time.
func dispatch(clk clock, dues []time.Duration, fire func(i int, sent time.Duration)) {
	for i, due := range dues {
		now := clk.now()
		if now < due {
			clk.sleep(due - now)
			now = clk.now()
		}
		fire(i, now)
	}
}

// poissonDues draws the due offsets of a Poisson arrival process at rate
// per second over [0, span), from the caller's random source.
func poissonDues(exp func() float64, rate float64, span time.Duration) []time.Duration {
	var dues []time.Duration
	t := 0.0
	for {
		t += exp() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return dues
		}
		dues = append(dues, d)
	}
}

// request is one open-loop request's timeline as offsets from its step's
// start: when it was due, when the generator issued it, when the
// handler call started and returned. ok marks a 200 reply that parsed
// with a result; a request that timed out, was refused or failed is not
// ok.
type request struct {
	due, sent, start, done time.Duration
	ok                     bool
}

// stepSummary is the open-loop accounting of one rate step's measured
// window.
type stepSummary struct {
	Sent   int
	Failed int
	// P50 and P99 are latencies from the due time in ms; a failed
	// request counts as the client timeout, so it can only raise them.
	P50, P99 float64
	// Goodput is ok replies within the latency limit per second of
	// window; a failed request misses the limit.
	Goodput float64
	// LateP99 is the generator's lateness (issue − due) and DispatchP50
	// the wait until the handler started (start − due), in ms.
	LateP99, DispatchP50 float64
	// HandlerP50 is the handler call's own duration in ms.
	HandlerP50 float64
}

// summarizeStep accounts the requests due inside one measured window of
// the given length.
func summarizeStep(reqs []request, window, limit, timeout time.Duration) stepSummary {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var lat, late, disp, handler []float64
	s := stepSummary{Sent: len(reqs)}
	good := 0
	for _, r := range reqs {
		late = append(late, ms(r.sent-r.due))
		if !r.ok {
			s.Failed++
			lat = append(lat, ms(timeout))
			continue
		}
		l := r.done - r.due
		lat = append(lat, ms(l))
		disp = append(disp, ms(r.start-r.due))
		handler = append(handler, ms(r.done-r.start))
		if l <= limit {
			good++
		}
	}
	s.P50 = percentile(lat, 50)
	s.P99 = percentile(lat, 99)
	s.LateP99 = percentile(late, 99)
	s.DispatchP50 = percentile(disp, 50)
	s.HandlerP50 = percentile(handler, 50)
	if window > 0 {
		s.Goodput = float64(good) / window.Seconds()
	}
	return s
}
