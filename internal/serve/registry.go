// Package serve is the fault-diagnosis serving layer: a dictionary
// registry that amortizes per-CUT artifact builds (dictionary grid, test
// vector, trajectory map) across requests, a micro-batching scheduler
// that coalesces concurrent diagnose requests into single engine passes,
// and the HTTP/JSON front end the ftserve binary exposes. It sits on top
// of the public repro API — the paper's operational flow (compile the
// fault dictionary once, diagnose many unknown faults against it) as a
// long-lived process.
package serve

import (
	"container/list"
	"context"
	"errors"
	"log/slog"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/rerr"
)

// ErrUnknownCUT marks a request for a circuit under test the registry
// cannot resolve (no such benchmark). Maps to 404.
var ErrUnknownCUT = errors.New("unknown circuit under test")

// ErrClosed marks a request arriving after shutdown began. Maps to 503.
var ErrClosed = errors.New("server shutting down")

// DefaultCapacity is the registry's default LRU bound.
const DefaultCapacity = 8

// BuildFunc constructs the serving state for one CUT. The context is the
// registry's lifetime context, not a request context: a build triggered
// by one request outlives that request's cancellation, because every
// concurrent and future request for the CUT shares its result.
type BuildFunc func(ctx context.Context, name string) (*Entry, error)

// Registry is the dictionary registry: it holds per-CUT serving entries
// behind an LRU, building them lazily on first request with single-flight
// deduplication — N concurrent cold requests for one CUT trigger exactly
// one build, and the other N−1 wait for it.
type Registry struct {
	build    BuildFunc
	capacity int
	ctx      context.Context // lifetime context handed to builds
	metrics  *Metrics
	logger   *slog.Logger // nil = silent; set by the server from its Config

	mu       sync.Mutex
	order    *list.List               // front = most recently used; values are *Entry
	resident map[string]*list.Element // name → order element
	inflight map[string]*buildCall
	closed   bool
	// retired accumulates the engine path counters of entries that left
	// residency (evicted, or released at shutdown), so EngineStats keeps
	// counting monotonically across the LRU churn.
	retired engine.PathStatsSnapshot
}

type buildCall struct {
	done  chan struct{} // closed when the build finishes
	entry *Entry
	err   error
}

// NewRegistry builds a registry. ctx bounds the lifetime of entry builds
// (pass the server's base context); capacity ≤ 0 means DefaultCapacity.
func NewRegistry(ctx context.Context, capacity int, build BuildFunc, m *Metrics) *Registry {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if m == nil {
		m = &Metrics{}
	}
	return &Registry{
		build:    build,
		capacity: capacity,
		ctx:      ctx,
		metrics:  m,
		order:    list.New(),
		resident: make(map[string]*list.Element),
		inflight: make(map[string]*buildCall),
	}
}

// Get returns the serving entry for a CUT, building it on first use.
// Concurrent cold calls coalesce onto one build; ctx cancellation
// releases this caller (the build itself continues for the others, and
// its result is cached for future requests).
func (r *Registry) Get(ctx context.Context, name string) (*Entry, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	if el, ok := r.resident[name]; ok {
		r.order.MoveToFront(el)
		e := el.Value.(*Entry)
		r.mu.Unlock()
		return e, nil
	}
	c, ok := r.inflight[name]
	if !ok {
		c = &buildCall{done: make(chan struct{})}
		r.inflight[name] = c
		go r.runBuild(name, c)
	}
	r.mu.Unlock()

	select {
	case <-c.done:
		return c.entry, c.err
	case <-ctx.Done():
		return nil, rerr.Canceled(ctx.Err())
	}
}

// runBuild executes one single-flight build and publishes its result.
func (r *Registry) runBuild(name string, c *buildCall) {
	r.metrics.Builds.Add(1)
	buildStart := time.Now()
	entry, err := r.build(r.ctx, name)
	buildDur := time.Since(buildStart)
	r.metrics.BuildSeconds.Observe(buildDur)
	if err != nil {
		r.metrics.BuildErrors.Add(1)
		if r.logger != nil {
			r.logger.Warn("build failed", "cut", name, "seconds", buildDur.Seconds(), "err", err)
		}
	} else if r.logger != nil {
		r.logger.Info("build", "cut", name, "origin", entry.Origin, "seconds", buildDur.Seconds())
	}

	var evicted []*Entry
	r.mu.Lock()
	delete(r.inflight, name)
	if err == nil {
		if r.closed {
			// Shutdown raced the build: don't admit the entry, release it.
			evicted = append(evicted, entry)
			entry, err = nil, ErrClosed
		} else {
			el := r.order.PushFront(entry)
			r.resident[name] = el
			r.metrics.Resident.Store(int64(len(r.resident)))
			for r.order.Len() > r.capacity {
				back := r.order.Back()
				old := back.Value.(*Entry)
				r.order.Remove(back)
				delete(r.resident, old.Name)
				r.metrics.Evictions.Add(1)
				r.metrics.Resident.Store(int64(len(r.resident)))
				evicted = append(evicted, old)
			}
		}
	}
	for _, e := range evicted {
		if s, ok := e.engineStats(); ok {
			r.retired.Add(s)
		}
	}
	c.entry, c.err = entry, err
	r.mu.Unlock()
	close(c.done)

	// Release evicted entries outside the lock: their batchers drain
	// queued requests before stopping, which must not block Get calls.
	for _, e := range evicted {
		if r.logger != nil {
			r.logger.Info("evict", "cut", e.Name)
		}
		e.close()
	}
}

// EngineStats aggregates the engine path counters — factorizations,
// SMW solves, fallbacks — across every resident entry
// plus everything already retired from the LRU, giving the service-wide
// view /metrics and /v1/stats export.
func (r *Registry) EngineStats() engine.PathStatsSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := r.retired
	for el := r.order.Front(); el != nil; el = el.Next() {
		if s, ok := el.Value.(*Entry).engineStats(); ok {
			total.Add(s)
		}
	}
	return total
}

// Resident lists the loaded CUT names, most recently used first.
func (r *Registry) Resident() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, r.order.Len())
	for el := r.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Entry).Name)
	}
	return out
}

// Close stops the registry: future Gets fail with ErrClosed and every
// resident entry's batcher is drained and stopped. In-flight builds
// complete but their entries are released instead of admitted.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	var entries []*Entry
	for el := r.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*Entry)
		if s, ok := e.engineStats(); ok {
			r.retired.Add(s)
		}
		entries = append(entries, e)
	}
	r.order.Init()
	r.resident = make(map[string]*list.Element)
	r.metrics.Resident.Store(0)
	r.mu.Unlock()

	for _, e := range entries {
		e.close()
	}
}
