package serve

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/obs"
)

// Metrics holds the service's counters, gauges, and latency histograms.
// All fields are lock-free atomics, updated from request handlers,
// batcher workers, and registry builds; WritePrometheus renders one
// consistent snapshot in the Prometheus text exposition format.
//
// Counter/histogram pairing is deliberate and exact: every histogram
// observation happens after its paired counter increment on the same
// code path, so in a quiescent server request_seconds_count ==
// requests_total, queue_wait_seconds_count == batched_requests_total,
// batch_flush_seconds_count == batches_total, and build_seconds_count
// == builds_total — the invariants TestMetricsPrometheusInvariants
// pins. Under concurrent load a snapshot reads histograms before
// counters, so each _count is at most its _total, never ahead of it.
type Metrics struct {
	// Requests counts diagnose requests accepted into a queue.
	Requests atomic.Int64
	// Batches counts micro-batches flushed through the engine.
	Batches atomic.Int64
	// BatchedRequests counts requests served through flushed batches;
	// BatchedRequests/Batches is the realized coalescing factor.
	BatchedRequests atomic.Int64
	// Builds counts dictionary-registry entry builds (cold starts).
	Builds atomic.Int64
	// BuildErrors counts failed entry builds.
	BuildErrors atomic.Int64
	// WarmStarts counts entries restored from artifacts instead of
	// simulated.
	WarmStarts atomic.Int64
	// Evictions counts LRU evictions.
	Evictions atomic.Int64
	// QueueRejects counts requests bounced off a full queue.
	QueueRejects atomic.Int64
	// Canceled counts requests whose context died before their flush.
	Canceled atomic.Int64
	// Errors counts requests answered with a non-2xx status.
	Errors atomic.Int64
	// InFlight gauges requests currently inside a queue or batch.
	InFlight atomic.Int64
	// Resident gauges registry entries currently loaded.
	Resident atomic.Int64

	// RequestSeconds is end-to-end request latency: queue accept to
	// response delivery, observed once per accepted request on every
	// outcome (answered, canceled, swept at shutdown).
	RequestSeconds obs.Histogram
	// QueueWaitSeconds is time spent queued before a flush picked the
	// request up, observed once per batch member at flush start.
	QueueWaitSeconds obs.Histogram
	// BatchFlushSeconds is the duration of one whole batch flush
	// (filtering, shared solve, response scoring), one observation per
	// batch.
	BatchFlushSeconds obs.Histogram
	// EngineSolveSeconds times each batched signature solve of a flush's
	// fault requests (the engine pass alone, without projecting the
	// points onto the map), including per-fault retries after a poisoned
	// shared solve.
	EngineSolveSeconds obs.Histogram
	// BuildSeconds times registry entry builds, failures included.
	BuildSeconds obs.Histogram
}

// MetricsSnapshot is a plain-value copy of every metric, JSON-ready for
// the /v1/stats endpoint. Field names mirror the Prometheus series.
type MetricsSnapshot struct {
	Requests        int64 `json:"requests_total"`
	Batches         int64 `json:"batches_total"`
	BatchedRequests int64 `json:"batched_requests_total"`
	Builds          int64 `json:"builds_total"`
	BuildErrors     int64 `json:"build_errors_total"`
	WarmStarts      int64 `json:"warm_starts_total"`
	Evictions       int64 `json:"evictions_total"`
	QueueRejects    int64 `json:"queue_rejects_total"`
	Canceled        int64 `json:"canceled_total"`
	Errors          int64 `json:"errors_total"`
	InFlight        int64 `json:"inflight"`
	Resident        int64 `json:"resident_entries"`

	RequestSeconds     obs.Snapshot `json:"request_seconds"`
	QueueWaitSeconds   obs.Snapshot `json:"queue_wait_seconds"`
	BatchFlushSeconds  obs.Snapshot `json:"batch_flush_seconds"`
	EngineSolveSeconds obs.Snapshot `json:"engine_solve_seconds"`
	BuildSeconds       obs.Snapshot `json:"build_seconds"`
}

// Snapshot captures every metric. Histograms are read before counters:
// each counter increments strictly before its paired histogram
// observation, so this order guarantees every histogram _count is at
// most its paired _total even while requests race the read.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		RequestSeconds:     m.RequestSeconds.Snapshot(),
		QueueWaitSeconds:   m.QueueWaitSeconds.Snapshot(),
		BatchFlushSeconds:  m.BatchFlushSeconds.Snapshot(),
		EngineSolveSeconds: m.EngineSolveSeconds.Snapshot(),
		BuildSeconds:       m.BuildSeconds.Snapshot(),
	}
	s.Requests = m.Requests.Load()
	s.Batches = m.Batches.Load()
	s.BatchedRequests = m.BatchedRequests.Load()
	s.Builds = m.Builds.Load()
	s.BuildErrors = m.BuildErrors.Load()
	s.WarmStarts = m.WarmStarts.Load()
	s.Evictions = m.Evictions.Load()
	s.QueueRejects = m.QueueRejects.Load()
	s.Canceled = m.Canceled.Load()
	s.Errors = m.Errors.Load()
	s.InFlight = m.InFlight.Load()
	s.Resident = m.Resident.Load()
	return s
}

// WritePrometheus renders every metric in the Prometheus text format
// under the ftserve_ namespace, from one Snapshot.
func (m *Metrics) WritePrometheus(w io.Writer) {
	s := m.Snapshot()
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP ftserve_%s %s\n# TYPE ftserve_%s counter\nftserve_%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP ftserve_%s %s\n# TYPE ftserve_%s gauge\nftserve_%s %d\n", name, help, name, name, v)
	}
	hist := func(name, help string, hs obs.Snapshot) {
		obs.WriteSnapshotPrometheus(w, "ftserve_"+name, help, hs)
	}
	counter("requests_total", "diagnose requests accepted", s.Requests)
	counter("batches_total", "micro-batches flushed", s.Batches)
	counter("batched_requests_total", "requests served through batches", s.BatchedRequests)
	counter("builds_total", "registry entry builds", s.Builds)
	counter("build_errors_total", "failed registry entry builds", s.BuildErrors)
	counter("warm_starts_total", "entries restored from artifacts", s.WarmStarts)
	counter("evictions_total", "LRU evictions", s.Evictions)
	counter("queue_rejects_total", "requests bounced off a full queue", s.QueueRejects)
	counter("canceled_total", "requests canceled before flush", s.Canceled)
	counter("errors_total", "requests answered with an error", s.Errors)
	gauge("inflight", "requests inside a queue or batch", s.InFlight)
	gauge("resident_entries", "registry entries loaded", s.Resident)
	hist("request_seconds", "end-to-end request latency (accept to response)", s.RequestSeconds)
	hist("queue_wait_seconds", "time queued before a flush", s.QueueWaitSeconds)
	hist("batch_flush_seconds", "duration of one batch flush", s.BatchFlushSeconds)
	hist("engine_solve_seconds", "batched engine signature solve duration, projection excluded", s.EngineSolveSeconds)
	hist("build_seconds", "registry entry build duration", s.BuildSeconds)
}

// WriteEnginePrometheus renders aggregated engine path counters (see
// Registry.EngineStats) under the ftserve_engine_ namespace — appended
// to the /metrics payload after the serving metrics.
func WriteEnginePrometheus(w io.Writer, s engine.PathStatsSnapshot) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP ftserve_engine_%s %s\n# TYPE ftserve_engine_%s counter\nftserve_engine_%s %d\n", name, help, name, name, v)
	}
	counter("dense_factors_total", "dense golden/fallback factorizations", s.DenseFactors)
	counter("sparse_factors_total", "sparse golden/fallback factorizations", s.SparseFactors)
	counter("rank1_solves_total", "rank-1 Sherman-Morrison item solves", s.Rank1Solves)
	counter("rankk_solves_total", "rank-k Woodbury item solves", s.RankKSolves)
	counter("exact_fallbacks_total", "items re-solved by exact refactorization", s.ExactFallbacks)
	counter("supernodal_refactors_total", "sparse golden columns refactored by the frequency-blocked numeric phase", s.SupernodalRefactors)
	counter("partial_refactors_total", "exact fallbacks served by partial refactorization", s.PartialRefactors)
	counter("partial_refactor_columns_total", "matrix columns re-eliminated by partial refactors", s.PartialRefactorColumns)
	counter("dense_fallback_exact_total", "dense factorizations after a singular partial refactor", s.DenseFallbackExact)
	counter("dense_fallback_singular_total", "dense golden factorizations after a singular sparse refactor", s.DenseFallbackSingular)
	counter("sparse_vector_columns_total", "sparse golden columns whose corrections came from reach-limited half-solves instead of the block solve", s.SparseVectorColumns)
}
