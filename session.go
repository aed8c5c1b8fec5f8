package repro

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/analysis"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/fault"
	"repro/internal/ga"
	"repro/internal/geometry"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/probdiag"
	"repro/internal/trajectory"
)

// Stage identifies a Session phase in progress events.
type Stage string

const (
	// StageDictionary is fault simulation: compiling the CUT and filling
	// response grids.
	StageDictionary Stage = "dictionary"
	// StageOptimize is GA test-vector optimization.
	StageOptimize Stage = "optimize"
	// StageTrajectories is trajectory-map construction.
	StageTrajectories Stage = "trajectories"
	// StageEvaluate is the hold-out diagnosis evaluation.
	StageEvaluate Stage = "evaluate"
	// StageClouds is Monte-Carlo signature-cloud construction
	// (tolerance-aware probabilistic diagnosis model).
	StageClouds Stage = "clouds"
)

// Progress is one event on a session's progress stream.
//
// A stage that fails (including cancellation) stops emitting where it
// was interrupted — there is no synthetic completion or failure event;
// the stage's returned error is the failure signal. Consumers driving a
// UI should clear in-flight stages when the session call returns.
type Progress struct {
	// Stage names the phase the event belongs to.
	Stage Stage `json:"stage"`
	// Completed and Total measure the stage: GA generations for
	// StageOptimize, grid frequencies for StageDictionary, 0/1 and 1/1
	// begin/end markers for short stages.
	Completed int `json:"completed"`
	Total     int `json:"total"`
	// Generation is the finished 0-based GA generation (StageOptimize).
	Generation int `json:"generation"`
	// BestFitness is the generation's best GA fitness (StageOptimize).
	BestFitness float64 `json:"best_fitness"`
	// ElapsedMS is the wall-clock time since the stage began, in
	// milliseconds — a structured timing signal on every event after a
	// stage's opening 0/N marker (which carries 0). On a stage's final
	// event it is the stage duration.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// GenStats re-exports the GA's per-generation statistics.
type GenStats = ga.GenStats

// Option configures a Session (functional options, v2 API).
type Option func(*sessionOptions)

type sessionOptions struct {
	deviations   []float64
	components   []string
	workers      int
	progress     []func(Progress)
	doubleFaults bool
	maxDoubles   int
	tolerance    Tolerance
	tolSamples   int
	tolSeed      int64
	noiseTempK   float64
	noiseENBW    float64
	tracer       *obs.Tracer
}

// WithDeviations overrides the paper's ±10%…±40% fault grid with an
// explicit list of fractional deviations (e.g. -0.2, 0.2).
func WithDeviations(deviations ...float64) Option {
	return func(o *sessionOptions) {
		// Non-nil even when empty — see WithComponents.
		o.deviations = append([]float64{}, deviations...)
	}
}

// WithComponents restricts the fault universe to the named components
// (default: the CUT's fault targets, or every valued element for a
// netlist-built session).
func WithComponents(components ...string) Option {
	return func(o *sessionOptions) {
		// Non-nil even when empty: an explicit empty list is a config
		// error (caught by universe construction), not "use the default".
		o.components = append([]string{}, components...)
	}
}

// WithWorkers bounds the worker pools of the expensive stages (grid
// builds, GA fitness evaluation). 0 — the default — means one worker per
// CPU; negative values are rejected by NewSession.
func WithWorkers(n int) Option {
	return func(o *sessionOptions) { o.workers = n }
}

// WithDoubleFaults extends the modeled fault universe to simultaneous
// double faults: every unordered component pair of the universe, each
// part swept over the universe's deviation grid, capped at maxSets
// generated pairs (≤ 0 → no cap; the systematic generation order is
// documented on Universe.Pairs). Trajectory maps built by the session
// then carry one sweep-line family per (pair, frozen deviation), and
// Diagnoser/DiagnoseFaultSets name double faults instead of rejecting
// them — Rejected comes to mean "not in the modeled universe".
//
// The GA's fitness (trajectory intersections) intentionally stays on
// the single-fault map, per the paper; double-fault families only join
// at diagnosis time. Note the modeled pair count grows quadratically in
// components times quadratically in deviations — the paper CUT's 7
// components × 8 deviations already yield 1344 pairs — so serving-grade
// sessions on larger universes should set a cap. Artifacts saved from a
// double-fault session carry a different checksum than single-fault
// ones: the two model different universes and must not warm-start each
// other.
func WithDoubleFaults(maxSets int) Option {
	return func(o *sessionOptions) {
		o.doubleFaults = true
		o.maxDoubles = maxSets
	}
}

// WithTolerance attaches a manufacturing-tolerance model to the
// session: every component carries a relative standard deviation of
// tol.Sigma, and Clouds builds the probabilistic diagnosis model from
// the given number of Monte-Carlo samples per fault hypothesis. The
// tolerance configuration deliberately does not enter the artifact
// checksum — the point-signature path (Diagnoser, DiagnoseFaultSets,
// Evaluate, saved dictionaries/trajectories) is bit-identical with or
// without it, and existing artifacts keep warm-starting the session.
// NewSession rejects Sigma outside [0, 0.3], samples < 1, and Sigma 0
// without WithMeasurementNoise (every cloud would be a point).
func WithTolerance(tol Tolerance, samples int) Option {
	return func(o *sessionOptions) {
		o.tolerance = tol
		o.tolSamples = samples
	}
}

// WithToleranceSeed pins the Monte-Carlo base seed of cloud builds
// (sample i draws from seed+i). The default seed is 1; cloud builds
// are deterministic for a fixed seed at every worker count.
func WithToleranceSeed(seed int64) Option {
	return func(o *sessionOptions) { o.tolSeed = seed }
}

// WithMeasurementNoise adds an explicit measurement-noise term to
// probabilistic diagnosis: the output-referred thermal noise PSD at
// temperature tempK (kelvin), integrated over an equivalent noise
// bandwidth of enbwHz and normalized by the source amplitude, becomes
// a per-frequency additive variance in every likelihood and
// cloud-overlap computation. The PSDs are evaluated on the engine's
// stamp template — the same values analysis.OutputNoise computes by
// cloning and re-solving, pinned to 1e-9 by the engine's noise tests.
func WithMeasurementNoise(tempK, enbwHz float64) Option {
	return func(o *sessionOptions) {
		o.noiseTempK = tempK
		o.noiseENBW = enbwHz
	}
}

// WithProgress subscribes a callback to the session's progress stream.
// Events are delivered synchronously from whichever goroutine completes
// a unit of work: within a sequential stage (GA generations) calls
// arrive in order on one goroutine; during parallel grid builds
// (Precompute, SaveDictionary) the callback may be invoked concurrently
// and must be safe for that. Callbacks may call back into the Session.
// Multiple subscriptions all receive every event; for a decoupled
// consumer use WithProgressChannel.
func WithProgress(fn func(Progress)) Option {
	return func(o *sessionOptions) {
		if fn != nil {
			o.progress = append(o.progress, fn)
		}
	}
}

// WithTracer installs a span tracer on the session: every stage call
// (dictionary build, Optimize, Trajectories, Evaluate, Clouds) records
// one "session.<stage>" span, and the underlying engine records one
// "engine.column" span per frequency of every solve whose plan was
// resolved from fault sets, a dictionary miss (one-item plan) included.
// The dictionary's single-fault universe plan — the GA fitness hot
// path's — records none (see engine.SetTracer), so a traced session
// computes bit-identical results at unchanged steady-state allocation
// cost. A nil tracer is the default: all span sites are no-ops. Dump the
// collected spans with Tracer.WriteJSON.
func WithTracer(t *Tracer) Option {
	return func(o *sessionOptions) { o.tracer = t }
}

// WithProgressChannel subscribes a channel to the progress stream.
// Sends never block: when the channel is full the event is dropped, so a
// slow consumer cannot stall a stage. Use a buffered channel sized for
// the expected event rate (one per GA generation / grid frequency).
func WithProgressChannel(ch chan<- Progress) Option {
	return func(o *sessionOptions) {
		if ch == nil {
			return
		}
		o.progress = append(o.progress, func(ev Progress) {
			select {
			case ch <- ev:
			default:
			}
		})
	}
}

// Session is the v2 entry point: it owns the fault dictionary for one
// circuit under test and exposes every long-running stage with
// context.Context threading, progress streaming, and structured errors.
//
// A Session is safe for concurrent use: the underlying dictionary's
// grid store is locked, stages do not share mutable state, and the
// subscriber list is immutable after construction.
type Session struct {
	cut      CUT
	atpg     *core.ATPG
	workers  int
	checksum string
	pairs    []fault.Multi    // modeled double-fault universe; nil without WithDoubleFaults
	progress []func(Progress) // immutable after NewSession
	tracer   *obs.Tracer      // nil without WithTracer; all span sites are nil-safe

	// Tolerance model (WithTolerance); tolSamples == 0 means none.
	tolerance  Tolerance
	tolSamples int
	tolSeed    int64
	noiseTempK float64
	noiseENBW  float64
}

// NewSession builds the fault dictionary for a CUT and returns the
// session every other stage hangs off, configured by functional options:
//
//	s, err := repro.NewSession(cut,
//	    repro.WithDeviations(-0.2, -0.1, 0.1, 0.2),
//	    repro.WithWorkers(4),
//	    repro.WithProgress(func(p repro.Progress) { log.Println(p) }),
//	)
//
// Configuration failures wrap ErrBadConfig; unknown fault targets wrap
// ErrUnknownComponent.
func NewSession(cut CUT, opts ...Option) (*Session, error) {
	var o sessionOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.workers < 0 {
		return nil, fmt.Errorf("repro: %w: negative worker count %d", ErrBadConfig, o.workers)
	}
	if err := cut.Validate(); err != nil {
		return nil, err
	}
	deviations := o.deviations
	if deviations == nil {
		deviations = fault.PaperDeviations()
	}
	components := o.components
	if components == nil {
		components = cut.Passives
	}
	u, err := fault.NewUniverse(components, deviations)
	if err != nil {
		return nil, err
	}
	if (o.noiseTempK != 0 || o.noiseENBW != 0) && (o.noiseTempK <= 0 || o.noiseENBW <= 0) {
		return nil, fmt.Errorf("repro: %w: measurement noise needs positive temperature and bandwidth, got %g K / %g Hz",
			ErrBadConfig, o.noiseTempK, o.noiseENBW)
	}
	if o.tolSamples != 0 || o.tolerance.Sigma != 0 {
		if o.tolerance.Sigma < 0 || o.tolerance.Sigma > 0.3 {
			return nil, fmt.Errorf("repro: %w: tolerance sigma %g outside [0, 0.3]", ErrBadConfig, o.tolerance.Sigma)
		}
		if o.tolSamples < 1 {
			return nil, fmt.Errorf("repro: %w: %d Monte-Carlo samples < 1", ErrBadConfig, o.tolSamples)
		}
		// With σ = 0 every sample is the nominal fault set, so each cloud
		// is a point whose only variance is the floor, and the likelihood
		// ranking reports full confidence in the nearest cloud.
		if o.tolerance.Sigma == 0 && o.noiseTempK == 0 {
			return nil, fmt.Errorf("repro: %w: tolerance sigma 0 needs measurement noise (WithMeasurementNoise)", ErrBadConfig)
		}
	}
	if o.tolSeed == 0 {
		o.tolSeed = 1
	}
	// The stored CUT reflects the actual fault targets, so CUT().Passives
	// always names the universe the session diagnoses over.
	cut.Passives = append([]string(nil), u.Components...)
	s := &Session{
		cut: cut, workers: o.workers, progress: o.progress, tracer: o.tracer,
		tolerance: o.tolerance, tolSamples: o.tolSamples, tolSeed: o.tolSeed,
		noiseTempK: o.noiseTempK, noiseENBW: o.noiseENBW,
	}
	if o.doubleFaults {
		s.pairs, err = u.Pairs(nil, o.maxDoubles)
		if err != nil {
			return nil, fmt.Errorf("repro: %w: %v", ErrBadConfig, err)
		}
	}
	s.emit(Progress{Stage: StageDictionary, Completed: 0, Total: 1})
	start := time.Now()
	defer s.tracer.StartSpan("session.dictionary").End()
	atpg, err := core.New(cut.Circuit, cut.Source, cut.Output, u)
	if err != nil {
		return nil, err
	}
	s.atpg = atpg
	// The session's tracer propagates into the engine so fault-set
	// batches record their per-frequency columns on the same trace.
	if o.tracer != nil {
		atpg.Dictionary().Engine().SetTracer(o.tracer)
	}
	text, err := netlist.Serialize(cut.Circuit)
	if err != nil {
		return nil, fmt.Errorf("repro: checksum netlist: %w", err)
	}
	// The staleness fingerprint covers the whole measurement setup, not
	// just the topology: the same circuit observed at a different node or
	// over a different fault universe yields different artifacts. A
	// double-fault session appends its pair-universe size, so
	// single-fault artifacts keep their historical checksums and the two
	// universes never warm-start each other.
	fingerprint := fmt.Sprintf(
		"%s\nsource=%s\noutput=%s\ncomponents=%v\ndeviations=%v\n",
		text, cut.Source, cut.Output, u.Components, u.Deviations)
	if s.pairs != nil {
		fingerprint += fmt.Sprintf("doublefaults=%d\n", len(s.pairs))
	}
	s.checksum = artifact.Checksum(fingerprint)
	s.emit(Progress{Stage: StageDictionary, Completed: 1, Total: 1, ElapsedMS: msSince(start)})
	return s, nil
}

// msSince is the stage-timing unit used by Progress.ElapsedMS.
func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// NewSessionFromNetlist builds a session from netlist text plus the
// measurement metadata a netlist does not carry: the driving source and
// the observed output node. Fault targets default to every valued
// element; override with WithComponents.
func NewSessionFromNetlist(text, source, output string, opts ...Option) (*Session, error) {
	c, err := netlist.Parse(text)
	if err != nil {
		return nil, err
	}
	cut := CUT{
		Circuit:     c,
		Source:      source,
		Output:      output,
		Passives:    c.ValuedNames(),
		Omega0:      1,
		Description: "netlist-defined circuit under test",
	}
	if len(cut.Passives) == 0 {
		return nil, fmt.Errorf("repro: %w: netlist has no faultable components", ErrBadConfig)
	}
	return NewSession(cut, opts...)
}

// emit delivers one progress event to every subscriber. No lock is held
// while callbacks run — the subscriber list is immutable — so a callback
// may safely call back into the Session (e.g. kick off Trajectories when
// the optimize stage completes) without deadlocking.
func (s *Session) emit(ev Progress) {
	for _, fn := range s.progress {
		fn(ev)
	}
}

// CUT returns the session's circuit under test.
func (s *Session) CUT() CUT { return s.cut }

// Dictionary exposes the fault dictionary.
//
// The dictionary is safe for concurrent use: the grids it stores sit
// behind an internal mutex that point queries take only to look a cell
// up, and a point no grid holds is solved without storing anything.
// Bulk signature computation (SignaturesSets, UniverseSignaturesInto,
// and the diagnose paths built on them) solves into call-local scratch,
// the universe's resolved engine plan is shared read-only, and the
// batched engine draws per-worker workspaces from a sync.Pool. Any
// number of goroutines may query one dictionary — the contract the
// ftserve registry and micro-batcher rely on, pinned by the
// repository's -race hammer test.
func (s *Session) Dictionary() *Dictionary { return s.atpg.Dictionary() }

// ATPG exposes the underlying test generator for advanced use (baseline
// strategies, custom fitness modes).
func (s *Session) ATPG() *core.ATPG { return s.atpg }

// Checksum returns the SHA-256 (hex) fingerprint stamped into and
// verified against persisted artifacts. It covers the CUT's serialized
// netlist plus the measurement setup (source, output) and fault
// universe, so artifacts from a different board revision, observation
// node, or deviation grid are rejected as stale.
func (s *Session) Checksum() string { return s.checksum }

// Workers returns the session's configured worker bound (0 = one per
// CPU).
func (s *Session) Workers() int { return s.workers }

// Optimize searches for a test vector with the paper's GA. The context
// is enforced at every generation boundary and before each fitness
// evaluation: a canceled context returns an error wrapping ErrCanceled
// (and the context's own error) within one generation. Progress
// subscribers receive one StageOptimize event per generation carrying
// the generation's best fitness. When cfg.GA.Workers is 0, the session's
// WithWorkers bound applies.
func (s *Session) Optimize(ctx context.Context, cfg OptimizeConfig) (*TestVector, error) {
	if cfg.GA.Workers == 0 {
		cfg.GA.Workers = s.workers
	}
	total := cfg.GA.Generations
	start := time.Now()
	user := cfg.GA.Progress
	cfg.GA.Progress = func(st GenStats) {
		if user != nil {
			user(st)
		}
		s.emit(Progress{
			Stage:       StageOptimize,
			Completed:   st.Generation + 1,
			Total:       total,
			Generation:  st.Generation,
			BestFitness: st.Best,
			ElapsedMS:   msSince(start),
		})
	}
	defer s.tracer.StartSpan("session.optimize").End()
	return s.atpg.Optimize(ctx, cfg)
}

// Fitness evaluates the paper's fitness for an explicit test vector.
func (s *Session) Fitness(ctx context.Context, omegas []float64) (float64, error) {
	return s.atpg.Fitness(ctx, omegas)
}

// buildMap constructs the session's trajectory map for a test vector:
// the single-fault map, extended with one sweep-line family per modeled
// double fault when WithDoubleFaults is set.
func (s *Session) buildMap(ctx context.Context, omegas []float64) (*TrajectoryMap, error) {
	if s.pairs != nil {
		return trajectory.BuildPairs(ctx, s.atpg.Dictionary(), omegas, s.pairs)
	}
	return trajectory.Build(ctx, s.atpg.Dictionary(), omegas)
}

// Trajectories builds the trajectory map for a test vector — including
// the double-fault sweep families when the session was opened
// WithDoubleFaults. A canceled context returns an error wrapping
// ErrCanceled within one frequency.
func (s *Session) Trajectories(ctx context.Context, omegas []float64) (*TrajectoryMap, error) {
	s.emit(Progress{Stage: StageTrajectories, Completed: 0, Total: 1})
	start := time.Now()
	defer s.tracer.StartSpan("session.trajectories").End()
	m, err := s.buildMap(ctx, omegas)
	if err != nil {
		return nil, err
	}
	s.emit(Progress{Stage: StageTrajectories, Completed: 1, Total: 1, ElapsedMS: msSince(start)})
	return m, nil
}

// Diagnoser builds the diagnosis stage for a test vector, over the same
// map Trajectories returns (double-fault families included when the
// session models them).
//
// A built Diagnoser is immutable and safe for concurrent read-only use:
// Diagnose, DiagnoseSet, DiagnoseSets, Evaluate, Extent and Map only read
// the trajectory map they were built over. Build one Diagnoser per test
// vector and share it across request-serving goroutines.
func (s *Session) Diagnoser(ctx context.Context, omegas []float64) (*Diagnoser, error) {
	defer s.tracer.StartSpan("session.diagnoser").End()
	m, err := s.buildMap(ctx, omegas)
	if err != nil {
		return nil, err
	}
	return diagnosis.New(m)
}

// DiagnoseFaults is DiagnoseFaultSets over single faults.
func (s *Session) DiagnoseFaults(ctx context.Context, dg *Diagnoser, faults []Fault) ([]*DiagnosisResult, error) {
	return dg.DiagnoseSets(ctx, s.Dictionary(), fault.Sets(faults))
}

// DiagnoseFaultSets computes the signatures of every given fault set —
// golden, single, and multiple faults freely mixed — in one batched
// rank-k solve at the diagnoser's test vector and diagnoses each,
// returning results aligned with the input: the bulk, shared-read
// diagnose entry point for concurrent requests (ftserve's micro-batcher
// runs its two steps, the batched signature solve and the projection,
// itself, to time the solve alone). It is safe to call from any number
// of goroutines sharing one Session and Diagnoser, and a batched call is
// bit-identical to the same sets diagnosed one at a time. A canceled
// context returns an error wrapping ErrCanceled within one frequency.
func (s *Session) DiagnoseFaultSets(ctx context.Context, dg *Diagnoser, sets []FaultSet) ([]*DiagnosisResult, error) {
	return dg.DiagnoseSets(ctx, s.Dictionary(), sets)
}

// Evaluate runs the hold-out evaluation: off-grid deviations (nil → the
// default ±15/25/35% set) on every universe component, diagnosed
// against the session's map (double-fault families included when
// modeled). A canceled context returns an error wrapping ErrCanceled
// within one frequency batch.
func (s *Session) Evaluate(ctx context.Context, omegas []float64, holdOut []float64) (*Evaluation, error) {
	if holdOut == nil {
		holdOut = diagnosis.DefaultHoldOutDeviations()
	}
	s.emit(Progress{Stage: StageEvaluate, Completed: 0, Total: 1})
	start := time.Now()
	defer s.tracer.StartSpan("session.evaluate").End()
	dg, err := s.Diagnoser(ctx, omegas)
	if err != nil {
		return nil, err
	}
	ev, err := dg.Evaluate(ctx, s.Dictionary(), fault.Sets(diagnosis.HoldOutTrials(s.Universe(), holdOut)))
	if err != nil {
		return nil, err
	}
	s.emit(Progress{Stage: StageEvaluate, Completed: 1, Total: 1, ElapsedMS: msSince(start)})
	return ev, nil
}

// EvaluateSets runs a hold-out evaluation over explicit fault-set
// trials (see Diagnoser.Evaluate for the scoring contract) against
// an already-built Diagnoser — build one with Diagnoser and share it
// across evaluations and serving, so the trajectory map (expensive for
// double-fault sessions) is constructed once. Combined with
// HoldOutDoubleFaults it measures how well a double-fault session names
// injected double faults.
func (s *Session) EvaluateSets(ctx context.Context, dg *Diagnoser, trials []FaultSet) (*Evaluation, error) {
	s.emit(Progress{Stage: StageEvaluate, Completed: 0, Total: 1})
	start := time.Now()
	defer s.tracer.StartSpan("session.evaluate").End()
	ev, err := dg.Evaluate(ctx, s.Dictionary(), trials)
	if err != nil {
		return nil, err
	}
	s.emit(Progress{Stage: StageEvaluate, Completed: 1, Total: 1, ElapsedMS: msSince(start)})
	return ev, nil
}

// DoubleFaults returns the session's modeled double-fault universe (nil
// unless WithDoubleFaults was set). The slice is shared; treat it as
// read-only.
func (s *Session) DoubleFaults() []MultiFault { return s.pairs }

// Universe returns the session's single-fault universe.
func (s *Session) Universe() *Universe { return s.atpg.Dictionary().Universe() }

// HoldOutDoubleFaults builds double-fault trials off the modeled grid:
// every component pair swept over the hold-out deviations (nil → the
// default ±15/25/35% set), capped at max sets (≤ 0 → no cap).
func (s *Session) HoldOutDoubleFaults(holdOut []float64, max int) ([]FaultSet, error) {
	return diagnosis.HoldOutPairTrials(s.Universe(), holdOut, max)
}

// Precompute builds and keeps a dictionary grid at the given
// frequencies with the session's worker bound, streaming one
// StageDictionary event per solved frequency. Subsequent responses at
// grid points are pure lookups; SaveDictionary calls this before
// snapshotting.
func (s *Session) Precompute(ctx context.Context, omegas []float64) error {
	start := time.Now()
	defer s.tracer.StartSpan("session.precompute").End()
	return s.Dictionary().BuildGridProgress(ctx, omegas, s.workers, func(done, total int) {
		s.emit(Progress{Stage: StageDictionary, Completed: done, Total: total, ElapsedMS: msSince(start)})
	})
}

// DiagnoseCircuit diagnoses an arbitrary variant of the CUT (a multiple
// fault, a tolerance-perturbed board — anything with the same source and
// output) against the trajectory map for the given test vector. The
// boolean reports whether the result should be rejected as out-of-model
// at the given rejection ratio (0 disables rejection).
func (s *Session) DiagnoseCircuit(ctx context.Context, variant *Circuit, omegas []float64, rejectRatio float64) (*DiagnosisResult, bool, error) {
	dg, err := s.Diagnoser(ctx, omegas)
	if err != nil {
		return nil, false, err
	}
	sig, err := s.Dictionary().CircuitSignature(variant, omegas)
	if err != nil {
		return nil, false, err
	}
	res, err := dg.Diagnose(geometry.VecN(sig))
	if err != nil {
		return nil, false, err
	}
	rejected := false
	if rejectRatio > 0 {
		rejected = res.Rejected(dg.Extent(), rejectRatio)
	}
	return res, rejected, nil
}

// FitTransfer recovers the CUT's transfer function N(s)/D(s) from
// sampled AC analysis (degrees chosen by the caller; see
// analysis.FitRational). It hands downstream users poles, zeros and
// filter parameters without symbolic analysis.
func (s *Session) FitTransfer(numDeg, denDeg int, omegas []float64) (Rational, error) {
	ac, err := analysis.NewAC(s.Dictionary().Golden())
	if err != nil {
		return Rational{}, err
	}
	return ac.FitRational(s.cut.Source, s.cut.Output, numDeg, denDeg, omegas)
}

// Tolerance returns the session's tolerance model and Monte-Carlo
// sample count; samples is 0 when the session has none (no
// WithTolerance).
func (s *Session) Tolerance() (tol Tolerance, samples int) {
	return s.tolerance, s.tolSamples
}

// Clouds builds the Monte-Carlo signature-cloud model for the given
// test vector: one cloud per fault set in the modeled universe
// (double-fault pairs included when WithDoubleFaults is set), each
// sampled tolSamples times with every component perturbed at the
// session's tolerance σ — one rank-k batched engine pass per sample,
// fanned out over the session's worker pool. When WithMeasurementNoise
// is set, the output-referred noise σ per frequency is derived from
// the engine's thermal-noise PSDs and folded into the model.
//
// Requires WithTolerance; deterministic for a fixed WithToleranceSeed
// at every worker count. Streams StageClouds progress events.
func (s *Session) Clouds(ctx context.Context, omegas []float64) (*SignatureClouds, error) {
	if s.tolSamples == 0 {
		return nil, fmt.Errorf("repro: %w: session has no tolerance model (use WithTolerance)", ErrBadConfig)
	}
	s.emit(Progress{Stage: StageClouds, Completed: 0, Total: 1})
	start := time.Now()
	defer s.tracer.StartSpan("session.clouds").End()
	cfg := probdiag.Config{
		Sigma:   s.tolerance.Sigma,
		Samples: s.tolSamples,
		Seed:    s.tolSeed,
		Workers: s.workers,
	}
	if s.noiseTempK > 0 {
		sigmas, err := s.measurementNoiseSigmas(ctx, omegas)
		if err != nil {
			return nil, err
		}
		cfg.NoiseSigma = sigmas
	}
	cs, err := probdiag.Build(ctx, s.Dictionary(), omegas, fault.Sets(s.pairs), cfg)
	if err != nil {
		return nil, err
	}
	s.emit(Progress{Stage: StageClouds, Completed: 1, Total: 1, ElapsedMS: msSince(start)})
	return cs, nil
}

// measurementNoiseSigmas converts the engine's thermal output-noise
// PSDs into signature-space standard deviations: σ_j =
// √(PSD_j·ENBW)/|amp| — an RMS noise voltage normalized the same way
// the engine normalizes every response magnitude.
func (s *Session) measurementNoiseSigmas(ctx context.Context, omegas []float64) ([]float64, error) {
	eng := s.Dictionary().Engine()
	psd, err := eng.OutputNoisePSD(ctx, omegas, s.noiseTempK)
	if err != nil {
		return nil, err
	}
	amp := eng.SourceAmplitude()
	sigmas := make([]float64, len(psd))
	for j, p := range psd {
		sigmas[j] = math.Sqrt(p*s.noiseENBW) / amp
	}
	return sigmas, nil
}

// DiagnoseProbabilistic scores an observed fault-space point against a
// cloud model built by Clouds (or loaded by LoadClouds): Gaussian
// log-likelihood per fault hypothesis, posterior probabilities,
// confidence, and the winner's ambiguity group. The diagnoser only
// contributes its frequency grid for dimensional checks — the
// nearest-signature Diagnose path is untouched.
func (s *Session) DiagnoseProbabilistic(dg *Diagnoser, clouds *SignatureClouds, point []float64) (*ProbabilisticResult, error) {
	return dg.DiagnoseProbabilistic(clouds, geometry.VecN(point))
}

// NewDiagnoser builds a Diagnoser directly from a trajectory map — the
// deployment path for maps loaded from artifacts (LoadTrajectories),
// where no simulator or dictionary is needed.
func NewDiagnoser(m *TrajectoryMap) (*Diagnoser, error) { return diagnosis.New(m) }

// TrajectoriesFromExport reconstructs a trajectory map from a persisted
// dictionary grid alone, interpolating in log ω between grid points. At
// exact grid frequencies the result is bit-for-bit the stored response.
func TrajectoriesFromExport(ex *DictionaryExport, omegas []float64) (*TrajectoryMap, error) {
	return trajectory.BuildFromExport(ex, omegas)
}
