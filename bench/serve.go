package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/obs"
	"repro/internal/serve"
)

// serveCUT is the circuit the serving workload diagnoses.
const serveCUT = "nf-lowpass-7"

// Open-loop client settings: every request carries a 1 s timeout, and a
// reply counts toward goodput when it is a 200 within 20 ms of its due
// time.
const (
	clientTimeout = time.Second
	latencyLimit  = 20 * time.Millisecond
)

// serveConfig is ftserve -cuts nf-lowpass-7 -freqs 0.56,4.55
// -tolerance 0.05 -mc-samples 64 -workers GOMAXPROCS with the default
// 2 ms flush window, batch of 64 and queue of 256.
func serveConfig(workers int) serve.Config {
	return serve.Config{Build: serve.BuildConfig{
		Workers:        workers,
		Freqs:          []float64{0.56, 4.55},
		Seed:           1,
		ToleranceSigma: 0.05,
		MCSamples:      64,
		Scheduler:      serve.SchedulerConfig{FlushWindow: 2 * time.Millisecond, MaxBatch: 64, QueueSize: 256},
	}}
}

// runServe drives an in-process ftserve with open-loop Poisson traffic:
// test stations are independent users, so requests arrive on a schedule
// whatever the server's state. Each request runs Handler().ServeHTTP on
// its own goroutine (no sockets). Two rate steps, light and busy, are
// followed by a closed-loop saturation step that measures capacity
// without refusing requests; each step spends its first quarter warming
// up and measures the rest. The mix is 70% single faults, 10% two-part
// injections and 20% observed signature points. The load falls on the
// micro-batcher (flush window, coalescing, queue), JSON, projection and
// probabilistic scoring. The set-up samples are fresh servers built and
// preloaded between the saturation step's bursts, with no request in
// flight.
func runServe(ctx context.Context, o options, sz sizes) (*result, error) {
	r := newResult("serve-open")
	if len(sz.serveRates) != len(serveSteps)-1 {
		return nil, fmt.Errorf("%d rate steps, the catalogue names %d", len(sz.serveRates), len(serveSteps)-1)
	}
	srv, err := newServer(ctx, o.workers)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	entry, err := srv.Registry().Get(ctx, serveCUT)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(o.seed))
	pool, err := newRequestPool(ctx, entry, rng, sz.servePool)
	if err != nil {
		return nil, err
	}
	lg := &loadGen{srv: srv, entry: entry, pool: pool, rng: rng}
	if o.trace {
		return traceServe(ctx, o, sz, r, lg)
	}
	var setups []opTime
	var setupErr error
	setup := func() {
		stop := startOp()
		s, err := newServer(ctx, o.workers)
		setups = append(setups, stop())
		if err != nil {
			setupErr = err
			return
		}
		s.Close()
	}
	steps, _, err := lg.runSteps(ctx, r, sz, o.seconds, nil, setup)
	if err != nil {
		return nil, err
	}
	if setupErr != nil {
		return nil, setupErr
	}
	lg.check(ctx, r)
	for k, st := range steps {
		name := serveSteps[k]
		r.extra("p50_ms_"+name, st.sum.P50, "ms")
		r.extra("p99_ms_"+name, st.sum.P99, "ms")
		r.extra("goodput_rps_"+name, st.sum.Goodput, "1/s")
		r.extra("sent_"+name, float64(st.sum.Sent), "count")
	}
	sat := steps[len(steps)-1]
	if sat.repliesPerS <= 0 {
		return nil, fmt.Errorf("the saturation step answered no request")
	}
	r.extra("raw_replies_per_s_sat", sat.rawRepliesPerS, "1/s")
	if err := endToEndMetrics(r, setups, sat.bursts, sat.repliesPerS, sat.allocMBPerReply); err != nil {
		return nil, err
	}
	return r, nil
}

// newServer builds a server configured as serveConfig and preloads the
// served CUT.
func newServer(ctx context.Context, workers int) (*serve.Server, error) {
	srv := serve.New(serveConfig(workers))
	if err := srv.Preload(ctx, []string{serveCUT}); err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

// runSteps runs the open-loop rate steps, light to busy, serveOpenStep
// each, then the saturation step for the rest of total; pause, if not
// nil, runs between the saturation step's bursts. The end-to-end metrics
// come from the saturation step, so it gets most of the time. A traced
// run first repeats the busy step untraced, right before its traced run,
// as the baseline of the tracing overhead.
func (lg *loadGen) runSteps(ctx context.Context, r *result, sz sizes, total time.Duration, t *tracer, pause func()) (steps []*stepOutcome, baseline *stepOutcome, err error) {
	open := len(sz.serveRates)
	if t != nil {
		open++
	}
	sat := total - time.Duration(open)*sz.serveOpenStep
	if sat < satBurst {
		return nil, nil, fmt.Errorf("%v leaves no time for the saturation step after %d open-loop steps of %v", total, open, sz.serveOpenStep)
	}
	for k, rate := range sz.serveRates {
		if t != nil && k == len(sz.serveRates)-1 {
			if baseline, err = lg.step(ctx, r, rate, sz.serveOpenStep, nil); err != nil {
				return nil, nil, err
			}
		}
		st, err := lg.step(ctx, r, rate, sz.serveOpenStep, t)
		if err != nil {
			return nil, nil, err
		}
		steps = append(steps, st)
	}
	return append(steps, lg.saturate(ctx, r, sz.serveClients, sat, t, pause)), baseline, nil
}

// poolReq is one generated request.
type poolReq struct {
	body []byte
	// single marks a single-fault request; check marks the 1% of them
	// whose top candidate is compared with Session.DiagnoseFaults.
	single, check bool
	fault         repro.Fault
	// point is the observed signature of a point request.
	point []float64
}

type wireFault struct {
	Component string  `json:"component"`
	Deviation float64 `json:"deviation"`
}

type wireRequest struct {
	CUT    string      `json:"cut"`
	Fault  *wireFault  `json:"fault,omitempty"`
	Faults []wireFault `json:"faults,omitempty"`
	Point  []float64   `json:"point,omitempty"`
}

// newRequestPool generates n requests: 70% single faults, 10% two-part
// injections, 20% observed points (a fault's signature plus 1% noise),
// components and deviations (5%…45% either way) drawn from rng.
func newRequestPool(ctx context.Context, entry *serve.Entry, rng *rand.Rand, n int) ([]poolReq, error) {
	comps := entry.Session.CUT().Passives
	randFault := func() repro.Fault {
		dev := 0.05 + 0.4*rng.Float64()
		if rng.Intn(2) == 0 {
			dev = -dev
		}
		return repro.Fault{Component: comps[rng.Intn(len(comps))], Deviation: dev}
	}
	wire := func(f repro.Fault) wireFault { return wireFault{f.Component, f.Deviation} }
	pool := make([]poolReq, n)
	var pointFaults []repro.Fault
	var pointIdx []int
	singles := 0
	for i := range pool {
		req := wireRequest{CUT: serveCUT}
		switch u := rng.Float64(); {
		case u < 0.7:
			f := randFault()
			pool[i].single, pool[i].fault = true, f
			pool[i].check = singles%100 == 0
			singles++
			wf := wire(f)
			req.Fault = &wf
		case u < 0.8:
			a, b := randFault(), randFault()
			for b.Component == a.Component {
				b = randFault()
			}
			req.Faults = []wireFault{wire(a), wire(b)}
		default:
			pointFaults = append(pointFaults, randFault())
			pointIdx = append(pointIdx, i)
			continue // the body needs the signature, computed below
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		pool[i].body = body
	}
	if len(pointFaults) > 0 {
		sigs, err := entry.Session.Dictionary().Signatures(ctx, pointFaults, entry.Omegas)
		if err != nil {
			return nil, err
		}
		for k, i := range pointIdx {
			pt := make([]float64, len(sigs[k]))
			for j, v := range sigs[k] {
				pt[j] = v + rng.NormFloat64()*0.01*(math.Abs(v)+1e-3)
			}
			body, err := json.Marshal(wireRequest{CUT: serveCUT, Point: pt})
			if err != nil {
				return nil, err
			}
			pool[i].body, pool[i].point = body, pt
		}
	}
	return pool, nil
}

// loadGen is the serving workload's client.
type loadGen struct {
	srv   *serve.Server
	entry *serve.Entry
	pool  []poolReq
	rng   *rand.Rand
	// cursor counts the requests sent; request i uses pool entry
	// i mod len(pool).
	cursor atomic.Int64

	// tops holds the served top candidate of every checked request.
	mu   sync.Mutex
	tops []servedTop
	// badReplies counts 200 replies that did not parse with a result.
	badReplies int
}

type servedTop struct {
	req *poolReq
	top string
}

// stepOutcome is one step's measured window: the open-loop accounting
// and the server's own metrics over the window.
type stepOutcome struct {
	sum stepSummary
	// Window deltas of Server.Metrics().Snapshot().
	queueWaitP50, flushP50, solveP50 float64 // ms
	coalescing                       float64
	queueRejects, canceled           int64
	// The saturation step's measured bursts; the median of their answered
	// requests per calibrated second; answered requests per raw
	// wall-clock second and the heap allocated per answered request,
	// client and server together, over all of them.
	bursts                      []opTime
	repliesPerS, rawRepliesPerS float64
	allocMBPerReply             float64
}

// reply is the part of a /v1/diagnose reply the client checks.
type reply struct {
	Result *struct {
		Candidates []struct {
			Component string `json:"component"`
		} `json:"candidates"`
	} `json:"result"`
}

// step offers Poisson traffic at rate for span (the first quarter warms
// up, the rest is measured) and waits for every request to finish. With
// a tracer each request is one trace: a root from due time to checked
// reply, with the generator's lateness, the handler call and the reply
// decode as its spans.
func (lg *loadGen) step(ctx context.Context, r *result, rate float64, span time.Duration, t *tracer) (*stepOutcome, error) {
	warm := span / 4
	dues := poissonDues(lg.rng.ExpFloat64, rate, span)
	reqs := make([]request, len(dues))
	h := lg.srv.Handler()
	start := time.Now()
	clk := wallClock{start}
	var m0 serve.MetricsSnapshot
	measuring := false
	var wg sync.WaitGroup
	// Goroutines are bounded by the schedule: each finishes within the
	// client timeout of its due time.
	dispatch(clk, dues, func(i int, sent time.Duration) {
		if !measuring && dues[i] >= warm {
			measuring = true
			m0 = lg.srv.Metrics().Snapshot()
		}
		rq := &reqs[i]
		rq.due, rq.sent = dues[i], sent
		wg.Add(1)
		go func() {
			defer wg.Done()
			lg.do(ctx, h, clk, rq, lg.nextRequest(), t, start)
		}()
	})
	wg.Wait()
	if !measuring {
		return nil, fmt.Errorf("rate %g: no request due in the measured window", rate)
	}
	var window []request
	for _, rq := range reqs {
		if rq.due >= warm {
			window = append(window, rq)
		}
	}
	return lg.outcome(r, reqs, window, span-warm, m0), nil
}

// satBurst is the length of one burst of the saturation step.
const satBurst = 100 * time.Millisecond

// saturate is the capacity step: clients closed-loop callers, each
// sending its next request as soon as the previous one is answered. With
// fewer callers than queue slots nothing is refused, and the reply rate
// is the most the server sustains. The step runs as bursts of satBurst,
// the first quarter of them warming up. After each burst, with no
// request in flight, the calibration kernel runs and then pause, if not
// nil. The reply rate is the median over the measured bursts, so a burst
// the host stalled does not move it. A request is due when its caller
// sends it.
func (lg *loadGen) saturate(ctx context.Context, r *result, clients int, span time.Duration, t *tracer, pause func()) *stepOutcome {
	n := max(int(span/satBurst), 1)
	warm := n / 4
	h := lg.srv.Handler()
	var reqs, window []request
	var bursts []opTime
	var rates []float64 // answered requests per calibrated second, per measured burst
	var m0 serve.MetricsSnapshot
	for b := 0; b < n; b++ {
		if b == warm {
			m0 = lg.srv.Metrics().Snapshot()
		}
		start := time.Now()
		clk := wallClock{start}
		stop := startOp()
		per := make([][]request, clients)
		var wg sync.WaitGroup
		for c := range per {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for due := clk.now(); due < satBurst; due = clk.now() {
					rq := request{due: due, sent: due}
					lg.do(ctx, h, clk, &rq, lg.nextRequest(), t, start)
					per[c] = append(per[c], rq)
				}
			}(c)
		}
		wg.Wait()
		bt := stop()
		answered := 0
		for _, p := range per {
			reqs = append(reqs, p...)
			for _, rq := range p {
				if rq.ok {
					answered++
				}
			}
		}
		if b >= warm {
			for _, p := range per {
				window = append(window, p...)
			}
			bursts = append(bursts, bt)
			rates = append(rates, float64(answered)/(bt.calibrated()/1e3))
		}
		if pause != nil {
			pause()
		}
	}
	st := lg.outcome(r, reqs, window, time.Duration(n-warm)*satBurst, m0)
	st.bursts = bursts
	if ok := float64(st.sum.Sent - st.sum.Failed); ok > 0 {
		var wall, mb float64
		for _, bt := range bursts {
			wall += bt.wall
			mb += bt.allocMB
		}
		st.repliesPerS = median(rates)
		st.rawRepliesPerS = ok / (wall / 1e3)
		st.allocMBPerReply = mb / ok
	}
	return st
}

// nextRequest returns the next generated request, cycling the pool.
func (lg *loadGen) nextRequest() *poolReq {
	return &lg.pool[int(lg.cursor.Add(1)-1)%len(lg.pool)]
}

// outcome counts a finished step's requests into the result and
// accounts the ones in its measured window, windowLen long, against the
// server's metrics since the window opened (m0).
func (lg *loadGen) outcome(r *result, reqs, window []request, windowLen time.Duration, m0 serve.MetricsSnapshot) *stepOutcome {
	m1 := lg.srv.Metrics().Snapshot()
	for _, rq := range reqs {
		r.Attempted++
		if !rq.ok {
			r.Failed++
		}
	}
	st := &stepOutcome{sum: summarizeStep(window, windowLen, latencyLimit, clientTimeout)}
	p50ms := func(a, b obs.Snapshot) float64 { return histDelta(a, b).Quantile(0.5) * 1e3 }
	st.queueWaitP50 = p50ms(m0.QueueWaitSeconds, m1.QueueWaitSeconds)
	st.flushP50 = p50ms(m0.BatchFlushSeconds, m1.BatchFlushSeconds)
	st.solveP50 = p50ms(m0.EngineSolveSeconds, m1.EngineSolveSeconds)
	if b := m1.Batches - m0.Batches; b > 0 {
		st.coalescing = float64(m1.BatchedRequests-m0.BatchedRequests) / float64(b)
	}
	st.queueRejects = m1.QueueRejects - m0.QueueRejects
	st.canceled = m1.Canceled - m0.Canceled
	return st
}

// do sends one request and checks its reply.
func (lg *loadGen) do(ctx context.Context, h http.Handler, clk clock, rq *request, pr *poolReq, t *tracer, start time.Time) {
	ctx, cancel := context.WithTimeout(ctx, clientTimeout)
	defer cancel()
	hr := httptest.NewRequest(http.MethodPost, "/v1/diagnose", bytes.NewReader(pr.body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	rq.start = clk.now()
	h.ServeHTTP(rec, hr)
	rq.done = clk.now()
	if rec.Code == http.StatusOK {
		var rep reply
		if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil || rep.Result == nil || len(rep.Result.Candidates) == 0 {
			lg.mu.Lock()
			lg.badReplies++
			lg.mu.Unlock()
		} else {
			rq.ok = true
			if pr.check {
				lg.mu.Lock()
				lg.tops = append(lg.tops, servedTop{pr, rep.Result.Candidates[0].Component})
				lg.mu.Unlock()
			}
		}
	}
	if t != nil {
		parsed := time.Now()
		at := func(d time.Duration) time.Time { return start.Add(d) }
		tr := t.newTrace(true)
		root := tr.add(0, "request", at(rq.due), parsed)
		tr.add(root, "loadgen.late", at(rq.due), at(rq.sent))
		tr.add(root, "serve.handler", at(rq.start), at(rq.done))
		tr.add(root, "client.decode", at(rq.done), parsed)
		tr.finish()
	}
}

// check fails the result for any 200 reply without a result, and
// compares every checked single-fault request's served top candidate
// with Session.DiagnoseFaults on the entry's own diagnoser.
func (lg *loadGen) check(ctx context.Context, r *result) {
	if lg.badReplies > 0 {
		r.fail("%d replies with status 200 did not parse with a result", lg.badReplies)
	}
	want := make(map[*poolReq]string)
	for _, st := range lg.tops {
		w, ok := want[st.req]
		if !ok {
			res, err := lg.entry.Session.DiagnoseFaults(ctx, lg.entry.Diagnoser, []repro.Fault{st.req.fault})
			if err != nil {
				r.fail("%s: %v", st.req.fault.ID(), err)
				continue
			}
			w = res[0].Best().Component
			want[st.req] = w
		}
		if st.top != w {
			r.fail("%s: served top candidate %s, Session.DiagnoseFaults %s", st.req.fault.ID(), st.top, w)
		}
	}
	if len(lg.tops) == 0 {
		r.fail("no checked single-fault request was answered")
	}
}

// histDelta is the histogram of the observations between two snapshots.
func histDelta(a, b obs.Snapshot) obs.Snapshot {
	d := obs.Snapshot{Count: b.Count - a.Count, Sum: b.Sum - a.Sum, Buckets: make([]obs.Bucket, len(b.Buckets))}
	for i := range b.Buckets {
		d.Buckets[i] = obs.Bucket{LE: b.Buckets[i].LE, Count: b.Buckets[i].Count - a.Buckets[i].Count}
	}
	return d
}

// traceServe is the traced run: every step traced, with the busy step
// also run untraced just before as the overhead baseline, then the
// scoring, projection and engine solve a flush runs, timed on the served
// entry outside any load.
func traceServe(ctx context.Context, o options, sz sizes, r *result, lg *loadGen) (*result, error) {
	t := newTracer(4 * 2000)
	steps, baseline, err := lg.runSteps(ctx, r, sz, o.seconds, t, nil)
	if err != nil {
		return nil, err
	}
	values := map[string]float64{}
	for k, st := range steps {
		name := serveSteps[k]
		values["serve.queue_wait_p50_ms_"+name] = st.queueWaitP50
		values["serve.coalescing_"+name] = st.coalescing
		values["serve.flush_p50_ms_"+name] = st.flushP50
		values["serve.engine_solve_p50_ms_"+name] = st.solveP50
		values["serve.queue_rejects_"+name] = float64(st.queueRejects)
		values["serve.canceled_"+name] = float64(st.canceled)
		values["serve.handler_p50_ms_"+name] = st.sum.HandlerP50
		values["loadgen.dispatch_p50_ms_"+name] = st.sum.DispatchP50
		values["loadgen.late_p99_ms_"+name] = st.sum.LateP99
		values["loadgen.sent_"+name] = float64(st.sum.Sent)
	}
	lg.check(ctx, r)
	busy, sat := steps[len(steps)-2], steps[len(steps)-1]
	values["trace.unattributed_share"] = t.unattributedShare()
	// The overhead is the busy step's median latency traced over the
	// same step run untraced just before.
	values["trace.overhead_share"] = busy.sum.P50/baseline.sum.P50 - 1
	r.extra("traced_p50_ms_"+serveSteps[len(steps)-2], busy.sum.P50, "ms")
	r.extra("untraced_p50_ms_"+serveSteps[len(steps)-2], baseline.sum.P50, "ms")

	// Outside the load: the per-request scoring and projection the
	// batcher runs after a flush's solve, and the solve itself at the
	// saturation step's realized batch size.
	var points [][]float64
	var sets []repro.FaultSet
	for i := range lg.pool {
		if lg.pool[i].point != nil {
			points = append(points, lg.pool[i].point)
		}
		if lg.pool[i].single {
			sets = append(sets, lg.pool[i].fault)
		}
	}
	flush := min(max(int(math.Round(sat.coalescing)), 1), len(sets))
	dg, clouds := lg.entry.Diagnoser, lg.entry.Clouds
	probe := t.newTrace(false)
	proot := probe.start(0, "probe")
	for _, p := range points {
		sp := probe.start(proot.id, "probdiag.score")
		_, err1 := dg.DiagnoseProbabilistic(clouds, p)
		probe.end(sp)
		sp = probe.start(proot.id, "diagnosis.project")
		_, err2 := dg.Diagnose(p)
		probe.end(sp)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("scoring a generated point: %v, %v", err1, err2)
		}
	}
	for i := 0; i+flush <= len(sets) && i < 64*flush; i += flush {
		sp := probe.start(proot.id, "engine.solve_flush")
		_, err := lg.entry.Session.DiagnoseFaultSets(ctx, dg, sets[i:i+flush])
		probe.end(sp)
		if err != nil {
			return nil, err
		}
	}
	probe.end(proot)
	probe.finish()
	values["probdiag.score_us"] = t.meanUs("probdiag.score")
	values["diagnosis.project_us"] = t.meanUs("diagnosis.project")
	values["engine.solve_us_per_flush"] = t.meanUs("engine.solve_flush")
	r.extra("flush_size", float64(flush), "count")
	if err := r.fill(perLayer, values); err != nil {
		return nil, err
	}
	return r, t.writeJSON(o.spans)
}
