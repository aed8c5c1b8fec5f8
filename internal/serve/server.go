package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro"
	"repro/internal/engine"
)

// Config parameterizes a serving instance.
type Config struct {
	// Build configures entry construction (workers, fixed frequencies,
	// GA settings, artifact warm start, scheduler).
	Build BuildConfig
	// Capacity bounds the registry LRU (≤ 0 → DefaultCapacity).
	Capacity int
	// Version is reported by /healthz (e.g. repro.VersionString output).
	Version string
	// BuildFunc overrides the production entry builder (tests).
	BuildFunc BuildFunc
	// Logger, when set, receives structured request, build, and eviction
	// logs (ftserve wires it from -log-level/-log-format). nil disables
	// logging; it is also the default for Build.Logger.
	Logger *slog.Logger
}

// Server is the HTTP serving layer over the registry and scheduler.
//
// Shutdown order matters for draining: first stop accepting connections
// and wait for handlers (http.Server.Shutdown), then Close the Server —
// queued requests are flushed through their batchers before workers
// stop, so no accepted request goes unanswered.
type Server struct {
	cfg     Config
	metrics Metrics
	reg     *Registry
	mux     *http.ServeMux
	logger  *slog.Logger // nil = silent
	start   time.Time
	cancel  context.CancelFunc
}

// New builds a serving instance. The server owns its lifetime context;
// Close releases it.
func New(cfg Config) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{cfg: cfg, logger: cfg.Logger, start: time.Now(), cancel: cancel}
	build := cfg.BuildFunc
	if build == nil {
		if cfg.Build.Logger == nil {
			cfg.Build.Logger = cfg.Logger
		}
		build = NewEntryBuilder(cfg.Build, &s.metrics)
	}
	s.reg = NewRegistry(ctx, cfg.Capacity, build, &s.metrics)
	s.reg.logger = cfg.Logger
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/diagnose", s.handleDiagnose)
	s.mux.HandleFunc("/v1/diagnose/batch", s.handleDiagnoseBatch)
	s.mux.HandleFunc("/v1/cuts", s.handleCuts)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Handler returns the HTTP handler tree. With a Logger configured, every
// request is logged structurally (method, path, status, duration).
func (s *Server) Handler() http.Handler {
	if s.logger == nil {
		return s.mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.mux.ServeHTTP(sw, r)
		s.logger.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"duration_ms", float64(time.Since(t0))/float64(time.Millisecond))
	})
}

// statusWriter captures the response status for request logging.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Metrics exposes the server's counters.
func (s *Server) Metrics() *Metrics { return &s.metrics }

// Registry exposes the dictionary registry.
func (s *Server) Registry() *Registry { return s.reg }

// Preload warms the registry for the named CUTs, building (or
// artifact-loading) their serving state before traffic arrives.
func (s *Server) Preload(ctx context.Context, names []string) error {
	for _, name := range names {
		if _, err := s.reg.Get(ctx, name); err != nil {
			return fmt.Errorf("preload %s: %w", name, err)
		}
	}
	return nil
}

// Close drains and stops the registry's batchers and releases the
// server's lifetime context. Call after http.Server.Shutdown has
// returned.
func (s *Server) Close() {
	s.reg.Close()
	s.cancel()
}

// wireFault is one injected fault part on the wire.
type wireFault struct {
	Component string  `json:"component"`
	Deviation float64 `json:"deviation"`
}

// diagnoseRequest is the wire form of one diagnose request.
type diagnoseRequest struct {
	// CUT names the circuit under test (top-level requests only).
	CUT string `json:"cut"`
	// Fault is the single parametric fault to simulate and diagnose.
	Fault *wireFault `json:"fault,omitempty"`
	// Faults is a simultaneous multi-fault injection: every listed part
	// is applied at once and the combined response diagnosed (requires a
	// CUT served with double faults for the diagnosis to name pairs;
	// otherwise the nearest single-fault hypothesis — or a rejection —
	// answers). Mutually exclusive with Fault and Point.
	Faults []wireFault `json:"faults,omitempty"`
	// Point is an observed signature point (alternative to Fault).
	Point []float64 `json:"point,omitempty"`
	// RejectRatio enables out-of-model rejection when > 0.
	RejectRatio float64 `json:"reject_ratio,omitempty"`
}

// diagnoseReply is the wire form of one diagnosis.
type diagnoseReply struct {
	CUT       string                 `json:"cut"`
	Omegas    []float64              `json:"omegas"`
	BatchSize int                    `json:"batch_size"`
	Rejected  *bool                  `json:"rejected,omitempty"`
	Result    *repro.DiagnosisResult `json:"result,omitempty"`
	// Probabilistic fields, present when the server runs with a
	// tolerance model (-tolerance/-mc-samples): posterior confidence in
	// the top hypothesis, the likelihood-ranked hypothesis list, and the
	// winner's precomputed ambiguity group.
	Confidence     *float64                       `json:"confidence,omitempty"`
	Likelihoods    []repro.ProbabilisticCandidate `json:"likelihoods,omitempty"`
	AmbiguityGroup []string                       `json:"ambiguity_group,omitempty"`
	Error          string                         `json:"error,omitempty"`
	Status         int                            `json:"status,omitempty"`
}

// withProb folds a probabilistic diagnosis into the wire reply.
func (d *diagnoseReply) withProb(prob *repro.ProbabilisticResult) {
	if prob == nil {
		return
	}
	conf := prob.Confidence
	d.Confidence = &conf
	d.Likelihoods = prob.Candidates
	d.AmbiguityGroup = prob.AmbiguityGroup
}

// toRequest converts the wire form to a scheduler request.
func (d *diagnoseRequest) toRequest() *Request {
	req := &Request{Point: d.Point, RejectRatio: d.RejectRatio}
	if d.Fault != nil {
		req.Fault = repro.Fault{Component: d.Fault.Component, Deviation: d.Fault.Deviation}
	}
	for _, f := range d.Faults {
		req.Faults = append(req.Faults, repro.Fault{Component: f.Component, Deviation: f.Deviation})
	}
	return req
}

// maxBodyBytes bounds every request body; maxBatchItems bounds the
// sub-requests of one batch call (each costs a waiting goroutine).
const (
	maxBodyBytes  = 1 << 20
	maxBatchItems = 1024
)

// diagnose resolves the CUT and submits one request through its batcher.
// When an LRU eviction closes the batcher between the registry lookup
// and the submit, the request retries once against the rebuilt entry —
// only a genuine shutdown surfaces ErrClosed to the client.
func (s *Server) diagnose(ctx context.Context, cut string, dr *diagnoseRequest) (*Entry, Response) {
	for attempt := 0; ; attempt++ {
		entry, err := s.reg.Get(ctx, cut)
		if err != nil {
			return nil, Response{Err: err}
		}
		resp := entry.batcher.Diagnose(ctx, dr.toRequest())
		if errors.Is(resp.Err, ErrClosed) && attempt == 0 {
			continue
		}
		return entry, resp
	}
}

func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var dr diagnoseRequest
	if err := json.NewDecoder(r.Body).Decode(&dr); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err))
		return
	}
	entry, resp := s.diagnose(r.Context(), dr.CUT, &dr)
	if resp.Err != nil {
		s.writeError(w, statusOf(resp.Err), resp.Err)
		return
	}
	rep := diagnoseReply{
		CUT:       entry.Name,
		Omegas:    entry.Omegas,
		BatchSize: resp.BatchSize,
		Rejected:  resp.Rejected,
		Result:    resp.Result,
	}
	rep.withProb(resp.Prob)
	s.writeJSON(w, rep)
}

// batchRequest is the wire form of a multi-diagnose call: one CUT, many
// requests, answered positionally.
type batchRequest struct {
	CUT      string            `json:"cut"`
	Requests []diagnoseRequest `json:"requests"`
}

type batchReply struct {
	CUT     string          `json:"cut"`
	Omegas  []float64       `json:"omegas"`
	Results []diagnoseReply `json:"results"`
}

func (s *Server) handleDiagnoseBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var br batchRequest
	if err := json.NewDecoder(r.Body).Decode(&br); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err))
		return
	}
	if len(br.Requests) == 0 {
		s.writeError(w, http.StatusBadRequest, errors.New("empty request list"))
		return
	}
	if len(br.Requests) > maxBatchItems {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("batch of %d exceeds the %d-request limit", len(br.Requests), maxBatchItems))
		return
	}
	entry, err := s.reg.Get(r.Context(), br.CUT)
	if err != nil {
		s.writeError(w, statusOf(err), err)
		return
	}
	// Submit every sub-request concurrently so the scheduler coalesces
	// them — a batch HTTP call is micro-batching's best case — but no
	// more at once than the queue holds: a call of up to maxBatchItems
	// must not bounce its own items off a full queue with 503s.
	replies := make([]diagnoseReply, len(br.Requests))
	inFlight := make(chan struct{}, cap(entry.batcher.queue))
	var wg sync.WaitGroup
	for i := range br.Requests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inFlight <- struct{}{}
			defer func() { <-inFlight }()
			_, resp := s.diagnose(r.Context(), br.CUT, &br.Requests[i])
			rep := diagnoseReply{CUT: entry.Name, BatchSize: resp.BatchSize, Rejected: resp.Rejected, Result: resp.Result}
			rep.withProb(resp.Prob)
			if resp.Err != nil {
				rep.Error = resp.Err.Error()
				rep.Status = statusOf(resp.Err)
			}
			replies[i] = rep
		}(i)
	}
	wg.Wait()
	rep := batchReply{CUT: entry.Name, Omegas: entry.Omegas, Results: replies}
	if encodeJSON(w, rep) == nil {
		return
	}
	// Some item holds a value JSON cannot carry: answer those items 422
	// and the others as they are.
	for i := range replies {
		if _, err := json.Marshal(replies[i]); err != nil {
			replies[i] = diagnoseReply{CUT: entry.Name, BatchSize: replies[i].BatchSize,
				Error: unencodable(err).Error(), Status: http.StatusUnprocessableEntity}
		}
	}
	s.writeJSON(w, rep)
}

func (s *Server) handleCuts(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	s.writeJSON(w, map[string]any{"cuts": Catalog(s.reg)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, map[string]any{
		"status":         "ok",
		"version":        s.cfg.Version,
		"cuts_loaded":    len(s.reg.Resident()),
		"uptime_seconds": int64(time.Since(s.start).Seconds()),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w)
	WriteEnginePrometheus(w, s.reg.EngineStats())
}

// statsReply is the /v1/stats payload: the same data /metrics exposes,
// as JSON — serving metrics with latency snapshots (buckets, sum, count,
// p50/p90/p99) plus the aggregated engine path counters.
type statsReply struct {
	UptimeSeconds int64                    `json:"uptime_seconds"`
	Metrics       MetricsSnapshot          `json:"metrics"`
	Engine        engine.PathStatsSnapshot `json:"engine"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	s.writeJSON(w, statsReply{
		UptimeSeconds: int64(time.Since(s.start).Seconds()),
		Metrics:       s.metrics.Snapshot(),
		Engine:        s.reg.EngineStats(),
	})
}

// statusOf maps an error onto its HTTP status: serving-layer sentinels
// first, then the library's structured-error mapping.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrUnknownCUT):
		return http.StatusNotFound
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	default:
		return repro.HTTPStatus(err)
	}
}

// writeError answers status with a JSON error object (always encodable).
func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.metrics.Errors.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "status": status}) //nolint:errcheck // the connection owns delivery
}

// writeJSON answers 200 with v, or 422 with a JSON error when v holds a
// value JSON cannot carry.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	if err := encodeJSON(w, v); err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, unencodable(err))
	}
}

// encodeJSON writes v as one line of compact JSON (replies are read by
// programs) under the implicit status 200. Encode writes nothing when v
// holds a value JSON cannot carry (±Inf or NaN, as from a point so far
// out that every distance overflows), so that failure is returned with
// the status unsent; a failed write is not: the connection owns delivery.
func encodeJSON(w http.ResponseWriter, v any) error {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		var uv *json.UnsupportedValueError
		if errors.As(err, &uv) {
			return err
		}
	}
	return nil
}

// unencodable names a reply that JSON cannot carry.
func unencodable(err error) error {
	return fmt.Errorf("reply is not representable as JSON: %v", err)
}
