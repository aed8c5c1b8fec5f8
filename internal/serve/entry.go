package serve

import (
	"context"
	"fmt"
	"log"
	"log/slog"
	"sort"
	"sync"

	"repro"
	"repro/internal/artifact"
	"repro/internal/engine"
)

// Entry is one CUT's serving state: the session (dictionary + engine),
// the test vector it serves diagnoses at, the trajectory map, the shared
// read-only diagnoser, and the micro-batcher requests flow through.
type Entry struct {
	// Name is the benchmark CUT name the entry serves.
	Name string
	// Session owns the fault dictionary (safe for concurrent reads).
	Session *repro.Session
	// Omegas is the test vector every diagnosis runs at.
	Omegas []float64
	// Diagnoser is the shared read-only diagnosis stage (its Map method
	// exposes the trajectory map diagnoses project onto).
	Diagnoser *repro.Diagnoser
	// Clouds is the probabilistic diagnosis model, present when the
	// server runs with a tolerance model (BuildConfig.MCSamples > 0).
	// Safe for concurrent reads; every diagnosis through the batcher is
	// additionally scored against it.
	Clouds *repro.SignatureClouds
	// Origin records how the entry was produced: "optimized" (GA),
	// "configured" (fixed frequencies), or "artifact" (warm start).
	Origin string
	// Warning flags a degraded serving state (e.g. a warm start whose
	// test frequencies are not stored in the grid artifact, so
	// trajectories are interpolated). Surfaced in /v1/cuts and the log.
	Warning string

	batcher *batcher
}

// close drains and stops the entry's batcher, if any.
func (e *Entry) close() {
	if e.batcher != nil {
		e.batcher.stop()
	}
}

// engineStats reads the entry engine's path counters. Entries without a
// session (test stubs) report nothing.
func (e *Entry) engineStats() (engine.PathStatsSnapshot, bool) {
	if e.Session == nil {
		return engine.PathStatsSnapshot{}, false
	}
	return e.Session.Dictionary().Engine().Stats(), true
}

// BuildConfig parameterizes the production entry builder.
type BuildConfig struct {
	// Workers bounds each session's worker pools (0 = one per CPU).
	Workers int
	// Freqs, when non-empty, is the fixed test vector for every CUT —
	// no GA run, no test-vector artifact needed.
	Freqs []float64
	// Seed seeds the GA when a test vector must be optimized.
	Seed int64
	// FullGA selects the paper's full 128×15 GA instead of the quick
	// 32×10 settings.
	FullGA bool
	// DoubleFaults opens every session WithDoubleFaults: trajectory maps
	// gain the pair sweep families and {"faults": [...]} injections are
	// diagnosed by name. Artifacts carry a double-fault checksum, so
	// warm starts only match artifacts saved from double-fault sessions.
	DoubleFaults bool
	// MaxDoubleFaults caps the modeled pair universe per CUT (≤ 0 → no
	// cap); only meaningful with DoubleFaults.
	MaxDoubleFaults int
	// ToleranceSigma is the component tolerance (relative σ) of the
	// probabilistic diagnosis model. Setting it without MCSamples, or
	// MCSamples without it, fails every entry build with ErrBadConfig.
	ToleranceSigma float64
	// MCSamples, when > 0, builds a Monte-Carlo signature-cloud model
	// per entry (ToleranceSigma, MCSamples samples, seeded by Seed) and
	// scores every diagnosis against it — /v1/diagnose replies gain
	// confidence, likelihoods, and ambiguity_group.
	MCSamples int
	// ArtifactDir, when non-empty, is scanned once for saved artifacts;
	// a CUT whose checksum matches a saved trajectory map, test vector,
	// or dictionary grid warm-starts from it instead of re-simulating.
	ArtifactDir string
	// Scheduler configures each entry's micro-batcher.
	Scheduler SchedulerConfig
	// Logger, when set, receives structured build diagnostics (degraded
	// warm-start warnings). nil falls back to the standard log package.
	Logger *slog.Logger
}

// NewEntryBuilder returns the production BuildFunc: resolve the built-in
// benchmark CUT, open a session, obtain a test vector and trajectory map
// (from artifacts when available, else by computing them), and attach a
// micro-batcher. The artifact directory is scanned lazily once and the
// manifest reused across builds.
func NewEntryBuilder(cfg BuildConfig, m *Metrics) BuildFunc {
	if m == nil {
		m = &Metrics{}
	}
	var scanOnce sync.Once
	var manifest *artifact.Manifest
	var scanErr error
	getManifest := func() (*artifact.Manifest, error) {
		scanOnce.Do(func() {
			if cfg.ArtifactDir != "" {
				manifest, scanErr = artifact.ScanDir(cfg.ArtifactDir)
			}
		})
		return manifest, scanErr
	}

	return func(ctx context.Context, name string) (*Entry, error) {
		cut, err := repro.BenchmarkByName(name)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnknownCUT, err)
		}
		opts := []repro.Option{repro.WithWorkers(cfg.Workers)}
		if cfg.DoubleFaults {
			opts = append(opts, repro.WithDoubleFaults(cfg.MaxDoubleFaults))
		}
		if cfg.MCSamples != 0 || cfg.ToleranceSigma != 0 {
			opts = append(opts,
				repro.WithTolerance(repro.Tolerance{Sigma: cfg.ToleranceSigma}, cfg.MCSamples),
				repro.WithToleranceSeed(cfg.Seed))
		}
		s, err := repro.NewSession(cut, opts...)
		if err != nil {
			return nil, err
		}
		man, err := getManifest()
		if err != nil {
			return nil, err
		}

		e := &Entry{Name: name, Session: s}
		if err := buildServingState(ctx, e, man, cfg); err != nil {
			return nil, err
		}
		if cfg.MCSamples > 0 {
			if err := buildClouds(ctx, e, man, cfg); err != nil {
				return nil, err
			}
		}
		if e.Origin == "artifact" {
			m.WarmStarts.Add(1)
		}
		if e.Warning != "" {
			if cfg.Logger != nil {
				cfg.Logger.Warn("degraded entry", "cut", name, "warning", e.Warning)
			} else {
				log.Printf("serve: %s: %s", name, e.Warning)
			}
		}
		e.batcher = newBatcher(ctx, e, cfg.Scheduler, m)
		return e, nil
	}
}

// buildServingState fills the entry's test vector, trajectory map and
// diagnoser, preferring persisted artifacts over recomputation:
// trajectory map (carries its own test vector) > test vector + dictionary
// grid > test vector + live build > configured frequencies > GA.
func buildServingState(ctx context.Context, e *Entry, man *artifact.Manifest, cfg BuildConfig) error {
	s := e.Session
	// A saved trajectory map is the complete serving product.
	if man != nil {
		if path, ok := man.Find(artifact.KindTrajectories, s.Checksum()); ok {
			tm, err := s.LoadTrajectories(path)
			if err != nil {
				return err
			}
			return e.finish(tm.Omegas, tm, "artifact")
		}
	}

	omegas := append([]float64(nil), cfg.Freqs...)
	origin := "configured"
	if len(omegas) == 0 {
		if man != nil {
			if path, ok := man.Find(artifact.KindTestVector, s.Checksum()); ok {
				tv, err := s.LoadTestVector(path)
				if err != nil {
					return err
				}
				omegas, origin = tv.Omegas, "artifact"
			}
		}
	}
	if len(omegas) == 0 {
		ocfg := repro.PaperOptimizeConfig(s.CUT().Omega0)
		ocfg.Seed = cfg.Seed
		if !cfg.FullGA {
			ocfg.GA.PopSize = 32
			ocfg.GA.Generations = 10
		}
		tv, err := s.Optimize(ctx, ocfg)
		if err != nil {
			return err
		}
		omegas, origin = tv.Omegas, "optimized"
	}

	// A saved dictionary grid rebuilds the map without re-simulating.
	if man != nil {
		if path, ok := man.Find(artifact.KindDictionary, s.Checksum()); ok {
			tm, ex, err := gridTrajectories(s, path, omegas)
			if err != nil {
				return err
			}
			if off := OffGridFrequencies(ex, omegas); len(off) > 0 {
				e.Warning = fmt.Sprintf("test frequencies %v are not stored in the grid artifact; trajectories are log-ω interpolated and may misrank close faults", off)
			}
			return e.finish(omegas, tm, "artifact")
		}
	}
	tm, err := s.Trajectories(ctx, omegas)
	if err != nil {
		return err
	}
	return e.finish(omegas, tm, origin)
}

// buildClouds attaches the probabilistic diagnosis model: a saved
// signature-cloud artifact warm-starts the entry when it matches the
// serving configuration (checksum via the manifest, plus test vector,
// tolerance σ, and sample count); anything else rebuilds live through
// the session's Monte-Carlo sweep.
func buildClouds(ctx context.Context, e *Entry, man *artifact.Manifest, cfg BuildConfig) error {
	s := e.Session
	if man != nil {
		if path, ok := man.Find(artifact.KindClouds, s.Checksum()); ok {
			cs, err := s.LoadClouds(path)
			if err != nil {
				return err
			}
			tol, samples := s.Tolerance()
			if cs.MatchesOmegas(e.Omegas) && cs.Sigma == tol.Sigma && cs.Samples == samples {
				e.Clouds = cs
				return nil
			}
			// The artifact was built for a different test vector or
			// tolerance setup — fall through to a live build.
		}
	}
	cs, err := s.Clouds(ctx, e.Omegas)
	if err != nil {
		return err
	}
	e.Clouds = cs
	return nil
}

// finish installs the map and builds the shared diagnoser.
func (e *Entry) finish(omegas []float64, tm *repro.TrajectoryMap, origin string) error {
	dg, err := repro.NewDiagnoser(tm)
	if err != nil {
		return err
	}
	e.Omegas = append([]float64(nil), omegas...)
	e.Diagnoser = dg
	e.Origin = origin
	return nil
}

// gridTrajectories reads a saved dictionary grid (validating kind,
// schema version, and the session's netlist checksum) and rebuilds the
// trajectory map from it, interpolating in log ω off the stored grid —
// no fault simulation.
func gridTrajectories(s *repro.Session, path string, omegas []float64) (*repro.TrajectoryMap, *repro.DictionaryExport, error) {
	ex, err := s.LoadDictionary(path)
	if err != nil {
		return nil, nil, err
	}
	tm, err := repro.TrajectoriesFromExport(ex, omegas)
	if err != nil {
		return nil, nil, err
	}
	return tm, ex, nil
}

// DiagnoserFromGrid loads a saved dictionary-grid artifact and builds the
// diagnosis stage for the given test vector from it — the shared
// "diagnose against a saved grid without re-simulating" path behind both
// the registry's warm start and ftdiag -load-dictionary. The returned
// export lets callers check grid coverage (see OffGridFrequencies):
// responses at stored grid frequencies are bit-exact, anything else is
// log-ω interpolated and may blur closely spaced trajectories.
func DiagnoserFromGrid(s *repro.Session, path string, omegas []float64) (*repro.Diagnoser, *repro.DictionaryExport, error) {
	tm, ex, err := gridTrajectories(s, path, omegas)
	if err != nil {
		return nil, nil, err
	}
	dg, err := repro.NewDiagnoser(tm)
	if err != nil {
		return nil, nil, err
	}
	return dg, ex, nil
}

// OffGridFrequencies returns the requested test frequencies that are not
// stored exactly in the export's grid — the ones TrajectoriesFromExport
// had to interpolate.
func OffGridFrequencies(ex *repro.DictionaryExport, omegas []float64) []float64 {
	var off []float64
	for _, w := range omegas {
		found := false
		for _, g := range ex.Omegas {
			if g == w {
				found = true
				break
			}
		}
		if !found {
			off = append(off, w)
		}
	}
	return off
}

// CatalogEntry describes one CUT in the /v1/cuts listing.
type CatalogEntry struct {
	Name        string    `json:"name"`
	Description string    `json:"description"`
	Components  []string  `json:"components"`
	Loaded      bool      `json:"loaded"`
	Omegas      []float64 `json:"omegas,omitempty"`
	Origin      string    `json:"origin,omitempty"`
	Warning     string    `json:"warning,omitempty"`
	// DoubleFaults counts the modeled double-fault universe of a loaded
	// entry (0 ⇒ single-fault serving).
	DoubleFaults int `json:"double_faults,omitempty"`
	// ToleranceSigma and MCSamples describe a loaded entry's
	// probabilistic diagnosis model (MCSamples == 0 ⇒ point-signature
	// serving only).
	ToleranceSigma float64 `json:"tolerance_sigma,omitempty"`
	MCSamples      int     `json:"mc_samples,omitempty"`
	// AmbiguityGroups counts the precomputed cloud-overlap groups of a
	// loaded probabilistic entry.
	AmbiguityGroups int `json:"ambiguity_groups,omitempty"`
	// Nodes, NNZ, and FactorPath describe a loaded entry's MNA engine:
	// system order, structural nonzeros of the golden sparse pattern
	// (0 when none compiled), and which golden factorization path batch
	// solves run on ("dense" or "sparse").
	Nodes      int    `json:"nodes,omitempty"`
	NNZ        int    `json:"nnz,omitempty"`
	FactorPath string `json:"factor_path,omitempty"`
}

// Catalog lists every built-in benchmark plus any resident
// parameterized CUT (rc-ladder-<n>, …), annotating loaded entries with
// their serving state.
func Catalog(r *Registry) []CatalogEntry {
	resident := make(map[string]*Entry)
	r.mu.Lock()
	for el := r.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*Entry)
		resident[e.Name] = e
	}
	r.mu.Unlock()

	annotate := func(ce *CatalogEntry, e *Entry) {
		ce.Loaded = true
		ce.Omegas = e.Omegas
		ce.Origin = e.Origin
		ce.Warning = e.Warning
		ce.Components = e.Session.CUT().Passives
		ce.DoubleFaults = len(e.Session.DoubleFaults())
		eng := e.Session.Dictionary().Engine()
		ce.Nodes = eng.Nodes()
		ce.NNZ = eng.NNZ()
		ce.FactorPath = eng.FactorPathName()
		if e.Clouds != nil {
			tol, samples := e.Session.Tolerance()
			ce.ToleranceSigma = tol.Sigma
			ce.MCSamples = samples
			ce.AmbiguityGroups = len(e.Clouds.Groups)
		}
	}

	var out []CatalogEntry
	fixed := make(map[string]bool)
	for _, cut := range repro.Benchmarks() {
		ce := CatalogEntry{
			Name:        cut.Circuit.Name(),
			Description: cut.Description,
			Components:  cut.Passives,
		}
		fixed[ce.Name] = true
		if e, ok := resident[ce.Name]; ok {
			annotate(&ce, e)
		}
		out = append(out, ce)
	}
	// Resident entries resolved through a parameterized family name are
	// part of the serving state too, even though they are not in the
	// fixed benchmark list.
	for name, e := range resident {
		if fixed[name] {
			continue
		}
		ce := CatalogEntry{Name: name, Description: e.Session.CUT().Description}
		annotate(&ce, e)
		out = append(out, ce)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
