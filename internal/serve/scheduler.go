package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/geometry"
	"repro/internal/rerr"
)

// ErrQueueFull marks a request bounced off a full batcher queue — the
// service is overloaded for this CUT. Maps to 503.
var ErrQueueFull = errors.New("diagnose queue full")

// SchedulerConfig tunes one entry's micro-batcher.
type SchedulerConfig struct {
	// FlushWindow is how long the batcher waits after the first queued
	// request for more to coalesce (default 2ms). Requests arriving
	// within the window share one engine pass.
	FlushWindow time.Duration
	// MaxBatch caps a single flush (default 64); excess requests spill
	// over into the next batch.
	MaxBatch int
	// QueueSize bounds the request queue (default 256); submissions
	// beyond it fail fast with ErrQueueFull.
	QueueSize int

	// after is the flush-timer source, injectable by tests to drive the
	// window deterministically. nil means time.After.
	after func(time.Duration) <-chan time.Time
}

func (c SchedulerConfig) withDefaults() SchedulerConfig {
	if c.FlushWindow <= 0 {
		c.FlushWindow = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	if c.after == nil {
		c.after = time.After
	}
	return c
}

// Request is one diagnose request flowing through a batcher: a
// parametric fault (single, or a multi-fault injection via Faults) to
// simulate-and-diagnose, or an observed signature point to diagnose
// directly.
type Request struct {
	// Fault is the single parametric fault to diagnose (used when Point
	// is nil and Faults is empty).
	Fault repro.Fault
	// Faults, when non-empty, is a simultaneous multi-fault injection:
	// every part is applied at once and the combined response diagnosed.
	// Mutually exclusive with Fault and Point.
	Faults []repro.Fault
	// Point, when non-nil, is an observed signature point in the test
	// vector space (dimension must match the entry's test vector).
	Point []float64
	// RejectRatio, when > 0, additionally reports whether the diagnosis
	// should be rejected as out-of-model at this ratio.
	RejectRatio float64

	ctx  context.Context
	resp chan Response
	// enqueued is the queue-accept instant, stamped before the queue send
	// (the worker reads it at flush time) — the base of the queue-wait
	// and end-to-end latency histograms.
	enqueued time.Time
	// set is the validated fault hypothesis (single faults boxed, multis
	// constructed), filled by validate for non-point requests.
	set repro.FaultSet
	// settled guards the InFlight decrement: a request accepted into the
	// queue is settled exactly once, by whichever side answers it first
	// (flush processing, the shutdown sweep, or the caller detecting a
	// dead worker).
	settled atomic.Bool
}

// Response answers one Request.
type Response struct {
	// Result is the ranked diagnosis (nil on error).
	Result *repro.DiagnosisResult
	// Rejected reports the out-of-model decision when the request set a
	// rejection ratio.
	Rejected *bool
	// Prob is the probabilistic diagnosis of the same observed point —
	// likelihood-ranked hypotheses, confidence, ambiguity group — filled
	// when the entry serves a cloud model (nil otherwise). Scored after
	// the shared batched solve, outside it, so the micro-batching path
	// is unchanged.
	Prob *repro.ProbabilisticResult
	// BatchSize is the number of requests in the flush that served this
	// one — observability for the coalescing behavior.
	BatchSize int
	// Err is the request's failure, if any.
	Err error
}

// batcher is one entry's micro-batching scheduler: a bounded queue
// drained by a single worker goroutine that coalesces concurrent
// requests into one batched diagnose pass per flush.
type batcher struct {
	entry   *Entry
	cfg     SchedulerConfig
	ctx     context.Context // serving lifetime: batch solves run under it
	queue   chan *Request
	closing chan struct{}
	done    chan struct{}
	metrics *Metrics

	// collecting gauges the size of the batch currently being gathered —
	// observability for tests that drive the flush window by hand.
	collecting atomic.Int64
}

func newBatcher(ctx context.Context, e *Entry, cfg SchedulerConfig, m *Metrics) *batcher {
	if m == nil {
		m = &Metrics{}
	}
	cfg = cfg.withDefaults()
	b := &batcher{
		entry:   e,
		cfg:     cfg,
		ctx:     ctx,
		queue:   make(chan *Request, cfg.QueueSize),
		closing: make(chan struct{}),
		done:    make(chan struct{}),
	}
	b.metrics = m
	go b.run()
	return b
}

// Diagnose validates a request, queues it, and waits for its response.
// A full queue fails fast with ErrQueueFull; a context canceled while
// queued returns an error wrapping rerr.ErrCanceled (the batcher also
// skips the request at flush time, so no work is wasted on it).
func (b *batcher) Diagnose(ctx context.Context, req *Request) Response {
	if err := b.validate(req); err != nil {
		return Response{Err: err}
	}
	req.ctx = ctx
	req.resp = make(chan Response, 1) // buffered: a flush never blocks on an abandoned request
	select {
	case <-b.closing:
		return Response{Err: ErrClosed}
	default:
	}
	req.enqueued = time.Now()
	select {
	case b.queue <- req:
		b.metrics.Requests.Add(1)
		b.metrics.InFlight.Add(1)
	default:
		b.metrics.QueueRejects.Add(1)
		return Response{Err: ErrQueueFull}
	}
	// Every accepted request observes end-to-end latency exactly once,
	// whichever way it resolves — so request_seconds_count tracks
	// requests_total.
	defer func() { b.metrics.RequestSeconds.Observe(time.Since(req.enqueued)) }()
	select {
	case resp := <-req.resp:
		return resp
	case <-ctx.Done():
		return Response{Err: rerr.Canceled(ctx.Err())}
	case <-b.done:
		// The worker exited (eviction or shutdown) — the response may
		// have raced in just before, otherwise the request is refused.
		select {
		case resp := <-req.resp:
			return resp
		default:
			b.settle(req)
			return Response{Err: ErrClosed}
		}
	}
}

// settle decrements InFlight exactly once per accepted request, however
// many shutdown/eviction paths observe it.
func (b *batcher) settle(req *Request) {
	if req.settled.CompareAndSwap(false, true) {
		b.metrics.InFlight.Add(-1)
	}
}

// validate rejects malformed requests before they reach a batch, so one
// bad request cannot poison its neighbors' shared solve. Non-point
// requests leave their validated fault hypothesis in req.set.
func (b *batcher) validate(req *Request) error {
	if req.Point != nil {
		if req.Fault.Component != "" || len(req.Faults) > 0 {
			return fmt.Errorf("%w: request mixes a point with fault injections", rerr.ErrBadConfig)
		}
		if len(req.Point) != len(b.entry.Omegas) {
			return fmt.Errorf("%w: point dimension %d, test vector dimension %d",
				rerr.ErrBadConfig, len(req.Point), len(b.entry.Omegas))
		}
		for _, v := range req.Point {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: non-finite point coordinate", rerr.ErrBadConfig)
			}
		}
		return nil
	}
	if len(req.Faults) > 0 {
		if req.Fault.Component != "" {
			return fmt.Errorf("%w: request mixes fault and faults", rerr.ErrBadConfig)
		}
		for _, f := range req.Faults {
			if err := b.validateFault(f); err != nil {
				return err
			}
			// Every part of a faults injection is a genuine deviation —
			// the same rule NewMultiFault applies to k >= 2 — so a
			// one-element array cannot smuggle in a golden part the
			// multi constructor would reject.
			if f.Deviation == 0 {
				return fmt.Errorf("%w: faults part %q has zero deviation (use the golden circuit, not a zero fault)", rerr.ErrBadConfig, f.Component)
			}
		}
		if len(req.Faults) == 1 {
			req.set = req.Faults[0]
			return nil
		}
		set, err := repro.NewMultiFault(req.Faults...)
		if err != nil {
			return fmt.Errorf("%w: %v", rerr.ErrBadConfig, err)
		}
		req.set = set
		return nil
	}
	f := req.Fault
	if f.Component == "" {
		return fmt.Errorf("%w: request needs a fault or a point", rerr.ErrBadConfig)
	}
	if err := b.validateFault(f); err != nil {
		return err
	}
	req.set = f
	return nil
}

// validateFault checks one injected fault part.
func (b *batcher) validateFault(f repro.Fault) error {
	if f.Component == "" {
		return fmt.Errorf("%w: fault part without a component", rerr.ErrBadConfig)
	}
	if math.IsNaN(f.Deviation) || math.IsInf(f.Deviation, 0) || f.Deviation <= -1 {
		return fmt.Errorf("%w: fault deviation %g out of range (need finite, > -1)", rerr.ErrBadConfig, f.Deviation)
	}
	if !b.knownComponent(f.Component) {
		return fmt.Errorf("%w: %q is not a fault target of %s",
			rerr.ErrUnknownComponent, f.Component, b.entry.Name)
	}
	return nil
}

func (b *batcher) knownComponent(name string) bool {
	for _, c := range b.entry.Session.CUT().Passives {
		if c == name {
			return true
		}
	}
	return false
}

// stop drains the queue — every queued request is still answered — and
// waits for the worker to exit. Requests that race the worker's exit are
// swept with ErrClosed so no caller is left waiting.
func (b *batcher) stop() {
	select {
	case <-b.closing:
	default:
		close(b.closing)
	}
	<-b.done
	for {
		select {
		case req := <-b.queue:
			b.settle(req)
			req.resp <- Response{Err: ErrClosed}
		default:
			return
		}
	}
}

// run is the worker loop: wait for a request, collect a batch, process
// it, repeat. On shutdown it drains whatever is queued (in maxBatch-sized
// flushes, without waiting out flush windows) before exiting.
func (b *batcher) run() {
	defer close(b.done)
	for {
		select {
		case req := <-b.queue:
			b.process(b.collect(req))
		case <-b.closing:
			for {
				select {
				case req := <-b.queue:
					b.process(b.collectNoWait(req))
				default:
					return
				}
			}
		}
	}
}

// collect gathers a batch: the first request plus everything arriving
// within the flush window, capped at MaxBatch. Requests beyond the cap
// stay queued and spill over into the next batch.
func (b *batcher) collect(first *Request) []*Request {
	batch := []*Request{first}
	b.collecting.Store(1)
	defer b.collecting.Store(0)
	if b.cfg.MaxBatch == 1 {
		return batch
	}
	flush := b.cfg.after(b.cfg.FlushWindow)
	for len(batch) < b.cfg.MaxBatch {
		select {
		case req := <-b.queue:
			batch = append(batch, req)
			b.collecting.Store(int64(len(batch)))
		case <-flush:
			return batch
		case <-b.closing:
			return batch
		}
	}
	return batch
}

// collectNoWait gathers whatever is immediately queued, for shutdown
// draining.
func (b *batcher) collectNoWait(first *Request) []*Request {
	batch := []*Request{first}
	for len(batch) < b.cfg.MaxBatch {
		select {
		case req := <-b.queue:
			batch = append(batch, req)
		default:
			return batch
		}
	}
	return batch
}

// process serves one flushed batch: requests whose context already died
// are answered ErrCanceled without work; every live fault request shares
// one batched signature solve; every point, observed or solved, is
// projected as its request is answered.
func (b *batcher) process(batch []*Request) {
	flushStart := time.Now()
	b.metrics.Batches.Add(1)
	b.metrics.BatchedRequests.Add(int64(len(batch)))
	defer func() {
		for _, req := range batch {
			b.settle(req)
		}
		b.metrics.BatchFlushSeconds.Observe(time.Since(flushStart))
	}()

	live := make([]*Request, 0, len(batch))
	for _, req := range batch {
		// Queue wait is observed for every flushed member — canceled ones
		// included — so queue_wait_seconds_count tracks
		// batched_requests_total.
		b.metrics.QueueWaitSeconds.Observe(flushStart.Sub(req.enqueued))
		if err := req.ctx.Err(); err != nil {
			b.metrics.Canceled.Add(1)
			req.resp <- Response{Err: rerr.Canceled(err)}
			continue
		}
		live = append(live, req)
	}
	if len(live) == 0 {
		return
	}
	n := len(live)

	var sets []repro.FaultSet
	var faultReqs []*Request
	for _, req := range live {
		if req.Point == nil {
			sets = append(sets, req.set)
			faultReqs = append(faultReqs, req)
		} else {
			b.respond(req, b.project(req.Point), n)
		}
	}
	if len(sets) == 0 {
		return
	}

	// One engine pass for the whole flush — the micro-batching payoff.
	// Single and multi-fault injections share it: the rank-k batch path
	// keeps rank-1 items on their fast path. Only the signature solve is
	// timed as the engine's; each item is projected as it is answered.
	sigs, err := b.signatures(sets)
	if err == nil {
		for i, req := range faultReqs {
			b.respond(req, b.project(sigs[i]), n)
		}
		return
	}
	if len(sets) == 1 {
		b.respond(faultReqs[0], Response{Err: err}, n)
		return
	}
	// The shared solve failed (e.g. one fault drives the system
	// singular). Retry each fault alone so one poisonous request cannot
	// fail its neighbors.
	for _, req := range faultReqs {
		sig, err := b.signatures([]repro.FaultSet{req.set})
		if err != nil {
			b.respond(req, Response{Err: err}, n)
			continue
		}
		b.respond(req, b.project(sig[0]), n)
	}
}

// signatures solves the fault sets' signature points at the map's test
// vector in one batched engine pass, observed as engine solve time.
func (b *batcher) signatures(sets []repro.FaultSet) ([][]float64, error) {
	start := time.Now()
	sigs, err := b.entry.Session.Dictionary().SignaturesSets(b.ctx, sets, b.entry.Diagnoser.Map().Omegas)
	b.metrics.EngineSolveSeconds.Observe(time.Since(start))
	return sigs, err
}

// project diagnoses a signature point against the map — no simulation.
func (b *batcher) project(point []float64) Response {
	res, err := b.entry.Diagnoser.Diagnose(geometry.VecN(point))
	if err != nil {
		return Response{Err: err}
	}
	return Response{Result: res}
}

// respond finalizes one response: stamps the batch size, applies the
// rejection decision, scores the cloud model when the entry serves one,
// and delivers.
func (b *batcher) respond(req *Request, resp Response, batchSize int) {
	resp.BatchSize = batchSize
	if resp.Err == nil && req.RejectRatio > 0 {
		rej := resp.Result.Rejected(b.entry.Diagnoser.Extent(), req.RejectRatio)
		resp.Rejected = &rej
	}
	if resp.Err == nil && b.entry.Clouds != nil {
		prob, err := b.entry.Diagnoser.DiagnoseProbabilistic(b.entry.Clouds, resp.Result.Point)
		if err == nil {
			resp.Prob = prob
		}
		// A scoring failure (dimension drift) degrades to the classic
		// reply rather than failing a diagnosis that already succeeded.
	}
	req.resp <- resp
}
