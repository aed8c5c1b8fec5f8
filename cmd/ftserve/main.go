// Command ftserve is the long-lived fault-diagnosis service: it holds
// per-CUT fault dictionaries, test vectors, and trajectory maps in a
// registry (built lazily with single-flight deduplication, or
// warm-started from saved artifacts) and serves diagnoses over HTTP,
// coalescing concurrent requests into micro-batched engine passes.
//
// Quickstart:
//
//	ftserve -addr :8080 -cuts nf-lowpass-7 -freqs 0.56,4.55
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/diagnose \
//	  -d '{"cut":"nf-lowpass-7","fault":{"component":"R3","deviation":0.25}}'
//
// Endpoints: POST /v1/diagnose, POST /v1/diagnose/batch, GET /v1/cuts,
// GET /v1/stats (observability JSON), GET /healthz, GET /metrics
// (Prometheus text: counters, gauges, latency histograms, engine path
// counters).
//
// Observability: -log-level/-log-format select structured slog output
// (request, build, and eviction logs on stderr); -pprof-addr serves
// net/http/pprof on a separate listener, opt-in and isolated from the
// service port.
//
// SIGINT/SIGTERM begin a graceful shutdown: the listener closes,
// in-flight requests drain through their batchers, then the process
// exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/serve"
)

// options collects the serving configuration the flags map onto.
type options struct {
	addr       string
	cuts       string
	arts       string
	freqsArg   string
	seed       int64
	full       bool
	doubles    bool
	maxDoubles int
	tolSigma   float64
	mcSamples  int
	workers    int
	lru        int
	flush      time.Duration
	maxBatch   int
	queue      int
	drain      time.Duration
	pprofAddr  string
	logLevel   string
	logFormat  string
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "listen address")
	flag.StringVar(&o.cuts, "cuts", "", "comma-separated CUT names to preload at startup ('all' for every benchmark; others load lazily)")
	flag.StringVar(&o.arts, "artifacts", "", "directory of saved artifacts to warm-start CUTs from")
	flag.StringVar(&o.freqsArg, "freqs", "", "fixed test frequencies in rad/s for every CUT (default: GA-optimized per CUT)")
	flag.Int64Var(&o.seed, "seed", 1, "GA random seed for optimized test vectors")
	flag.BoolVar(&o.full, "full", false, "use the paper's full 128x15 GA for optimized test vectors")
	flag.BoolVar(&o.doubles, "double-faults", false, "model double faults: maps gain pair trajectories and {\"faults\":[...]} injections are named")
	flag.IntVar(&o.maxDoubles, "max-double-faults", 0, "cap the modeled double-fault universe per CUT (0 = no cap)")
	flag.Float64Var(&o.tolSigma, "tolerance", 0, "component tolerance sigma in (0, 0.3] for probabilistic diagnosis (requires -mc-samples)")
	flag.IntVar(&o.mcSamples, "mc-samples", 0, "Monte-Carlo samples per fault cloud; > 0 enables probabilistic diagnosis (confidence, likelihoods, ambiguity groups; requires -tolerance)")
	flag.IntVar(&o.workers, "workers", 0, "worker bound per session (0 = one per CPU)")
	flag.IntVar(&o.lru, "lru", serve.DefaultCapacity, "max CUTs resident in the registry")
	flag.DurationVar(&o.flush, "flush", 2*time.Millisecond, "micro-batch flush window")
	flag.IntVar(&o.maxBatch, "max-batch", 64, "max requests per micro-batch")
	flag.IntVar(&o.queue, "queue", 256, "bounded diagnose queue size per CUT")
	flag.DurationVar(&o.drain, "drain", 15*time.Second, "graceful shutdown drain timeout")
	flag.StringVar(&o.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	flag.StringVar(&o.logLevel, "log-level", "info", "structured log level: debug, info, warn, error")
	flag.StringVar(&o.logFormat, "log-format", "text", "structured log format: text or json")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(repro.VersionString("ftserve"))
		return
	}
	if err := run(o, nil); err != nil {
		log.Fatalf("ftserve: %v", err)
	}
}

// run builds and serves until SIGINT/SIGTERM, then drains. ready, when
// non-nil, receives the bound address once the listener is up (tests).
func run(o options, ready chan<- string) error {
	freqs, err := parseFreqs(o.freqsArg)
	if err != nil {
		return err
	}
	logger, err := buildLogger(o.logLevel, o.logFormat)
	if err != nil {
		return err
	}
	cfg := serve.Config{
		Capacity: o.lru,
		Version:  repro.VersionString("ftserve"),
		Logger:   logger,
		Build: serve.BuildConfig{
			Workers:         o.workers,
			Freqs:           freqs,
			Seed:            o.seed,
			FullGA:          o.full,
			DoubleFaults:    o.doubles,
			MaxDoubleFaults: o.maxDoubles,
			ToleranceSigma:  o.tolSigma,
			MCSamples:       o.mcSamples,
			ArtifactDir:     o.arts,
			Scheduler: serve.SchedulerConfig{
				FlushWindow: o.flush,
				MaxBatch:    o.maxBatch,
				QueueSize:   o.queue,
			},
		},
	}
	srv := serve.New(cfg)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if o.pprofAddr != "" {
		pln, err := net.Listen("tcp", o.pprofAddr)
		if err != nil {
			srv.Close()
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer pln.Close()
		logger.Info("pprof enabled", "addr", pln.Addr().String())
		go http.Serve(pln, pprofMux()) //nolint:errcheck // dies with the listener
	}

	if names := preloadNames(o.cuts); len(names) > 0 {
		log.Printf("preloading %s", strings.Join(names, ", "))
		if err := srv.Preload(ctx, names); err != nil {
			srv.Close()
			return err
		}
	}

	httpSrv := &http.Server{Addr: o.addr, Handler: srv.Handler()}
	errc := make(chan error, 1)
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		srv.Close()
		return err
	}
	log.Printf("%s", cfg.Version)
	log.Printf("serving on %s (flush %s, max batch %d, queue %d, lru %d, double faults %v, mc samples %d)",
		ln.Addr(), o.flush, o.maxBatch, o.queue, o.lru, o.doubles, o.mcSamples)
	if ready != nil {
		ready <- ln.Addr().String()
	}
	go func() { errc <- httpSrv.Serve(ln) }()

	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, let in-flight handlers finish
	// (their queued requests flush through the batchers), then stop the
	// registry.
	log.Printf("shutdown: draining in-flight requests (timeout %s)", o.drain)
	dctx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	shutdownErr := httpSrv.Shutdown(dctx)
	srv.Close()
	if shutdownErr != nil && !errors.Is(shutdownErr, http.ErrServerClosed) {
		return fmt.Errorf("drain: %w", shutdownErr)
	}
	<-errc // Serve has returned http.ErrServerClosed
	log.Printf("shutdown complete")
	return nil
}

// buildLogger maps -log-level/-log-format onto a stderr slog.Logger.
func buildLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info", "":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "text", "":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// pprofMux registers the net/http/pprof handlers on a dedicated mux, so
// the profiler never rides on the service listener (and the import does
// not expose http.DefaultServeMux).
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// preloadNames expands the -cuts flag.
func preloadNames(cuts string) []string {
	cuts = strings.TrimSpace(cuts)
	if cuts == "" {
		return nil
	}
	if cuts == "all" {
		var names []string
		for _, c := range repro.Benchmarks() {
			names = append(names, c.Circuit.Name())
		}
		return names
	}
	var names []string
	for _, n := range strings.Split(cuts, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	return names
}

// parseFreqs parses the -freqs flag (empty means "GA-optimize per CUT").
// The list is every CUT's test vector, so on top of ParseFrequencies'
// rules it needs ω > 0: trajectories live on log-ω axes.
func parseFreqs(arg string) ([]float64, error) {
	if strings.TrimSpace(arg) == "" {
		return nil, nil
	}
	freqs, err := repro.ParseFrequencies(arg)
	if err == nil && slices.Contains(freqs, 0) {
		err = fmt.Errorf("%w: a test vector needs ω > 0, got 0 (DC)", repro.ErrBadConfig)
	}
	if err != nil {
		return nil, fmt.Errorf("-freqs: %w", err)
	}
	return freqs, nil
}
