// Package probdiag implements tolerance-aware probabilistic fault
// diagnosis on top of the batched rank-k engine: every fault set in
// the dictionary universe gets a Monte-Carlo *signature cloud* — the
// distribution of its fault-space signature when all components carry
// manufacturing tolerance — summarized as per-frequency mean and
// variance. Diagnosis then ranks fault hypotheses by Gaussian
// log-likelihood (cloud variance plus an explicit measurement-noise
// term) instead of nearest point, yielding posterior probabilities, a
// confidence figure, and precomputed ambiguity groups (fault sets
// whose clouds overlap beyond a threshold).
//
// One MC sample is one rank-k batched engine pass: the sample's
// tolerance draw plus each hypothesis's fault compose into a k-part
// fault set per hypothesis, all solved against the shared golden LU.
// Sampling fans out over fanout.Run with per-sample RNGs
// (seed + sample index), and the reduction folds samples in index
// order — the resulting clouds are bit-identical at every worker
// count.
package probdiag

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"repro/internal/diagnosis"
	"repro/internal/dictionary"
	"repro/internal/engine"
	"repro/internal/fanout"
	"repro/internal/fault"
	"repro/internal/rerr"
)

// DefaultOverlapThreshold is the Bhattacharyya-coefficient overlap
// above which two clouds join one ambiguity group: 0.5 corresponds to
// a Bhattacharyya bound of ≥ 25% Bayes error between the pair.
const DefaultOverlapThreshold = 0.5

// varFloorRel scales the cloud extent into the variance floor that
// keeps zero-variance clouds (σ = 0 builds, or flat responses)
// scorable: floor = (varFloorRel · extent)².
const varFloorRel = 1e-6

// Config parameterizes a cloud build.
type Config struct {
	// Sigma is the component tolerance σ (relative, mirrors
	// fault.Tolerance.Sigma's [0, 0.3] range).
	Sigma float64
	// Samples is the Monte-Carlo sample count per cloud (≥ 1).
	Samples int
	// Seed is the base RNG seed; sample i draws from seed+i.
	Seed int64
	// Workers bounds the parallel sample workers (≤ 0 means NumCPU).
	Workers int
	// NoiseSigma is the optional per-frequency measurement-noise σ in
	// signature units (normalized |H|); it enters every likelihood and
	// overlap computation as an additive variance.
	NoiseSigma []float64
	// OverlapThreshold is the ambiguity-group cut on the pairwise
	// Bhattacharyya coefficient; 0 means DefaultOverlapThreshold.
	OverlapThreshold float64
}

// Cloud is one fault set's signature distribution.
type Cloud struct {
	// ID is the fault-set identifier ("R3@+25%", "C1@-20%+R3@+30%").
	ID string `json:"id"`
	// Key is the component-set key ("R3", "C1+R3") candidates
	// aggregate under.
	Key string `json:"key"`
	// Components and Deviations mirror the set's parts.
	Components []string  `json:"components"`
	Deviations []float64 `json:"deviations"`
	// Mean and Var are the per-frequency sample mean and unbiased
	// sample variance of the signature (|H(jω)| − golden).
	Mean []float64 `json:"mean"`
	Var  []float64 `json:"var"`
	// Group indexes CloudSet.Groups, or −1 when the cloud overlaps no
	// other cloud beyond the threshold.
	Group int `json:"group"`
}

// CloudSet is the complete probabilistic model for one circuit and
// frequency grid: every cloud, the measurement-noise variances, and
// the precomputed ambiguity groups. It is a pure-data value (the JSON
// shape is the artifact payload) and is safe for concurrent Score
// calls once built.
type CloudSet struct {
	// Omegas is the frequency grid the clouds live on.
	Omegas []float64 `json:"omegas"`
	// Sigma, Samples, Seed record the build configuration.
	Sigma   float64 `json:"sigma"`
	Samples int     `json:"samples"`
	Seed    int64   `json:"seed"`
	// FailedSamples counts MC samples dropped by solver failures
	// (singular perturbed systems); the statistics use the survivors.
	FailedSamples int `json:"failed_samples,omitempty"`
	// NoiseVar is the per-frequency measurement-noise variance added
	// to every cloud variance during scoring (NoiseSigma²).
	NoiseVar []float64 `json:"noise_var,omitempty"`
	// OverlapThreshold is the ambiguity grouping cut that was applied.
	OverlapThreshold float64 `json:"overlap_threshold"`
	// VarFloor is the additive variance floor derived from the cloud
	// extent at build time.
	VarFloor float64 `json:"var_floor"`
	// Clouds holds one entry per fault set, in universe order.
	Clouds []Cloud `json:"clouds"`
	// Groups lists the ambiguity groups (fault-set IDs, build order);
	// only groups with ≥ 2 members are materialized.
	Groups [][]string `json:"groups,omitempty"`
}

// Dim implements diagnosis.CloudModel.
func (cs *CloudSet) Dim() int { return len(cs.Omegas) }

// MatchesOmegas reports whether the clouds were built on exactly this
// frequency grid.
func (cs *CloudSet) MatchesOmegas(omegas []float64) bool {
	if len(omegas) != len(cs.Omegas) {
		return false
	}
	for i, w := range omegas {
		if cs.Omegas[i] != w {
			return false
		}
	}
	return true
}

// Validate checks the structural invariants a freshly unmarshaled
// CloudSet must satisfy before it may score points.
func (cs *CloudSet) Validate() error {
	nf := len(cs.Omegas)
	if nf == 0 {
		return fmt.Errorf("%w: probdiag: cloud set has no frequencies", rerr.ErrArtifact)
	}
	if len(cs.Clouds) == 0 {
		return fmt.Errorf("%w: probdiag: cloud set has no clouds", rerr.ErrArtifact)
	}
	if len(cs.NoiseVar) != 0 && len(cs.NoiseVar) != nf {
		return fmt.Errorf("%w: probdiag: noise_var has %d entries, want %d", rerr.ErrArtifact, len(cs.NoiseVar), nf)
	}
	if !(cs.VarFloor > 0) {
		return fmt.Errorf("%w: probdiag: nonpositive variance floor %g", rerr.ErrArtifact, cs.VarFloor)
	}
	for i := range cs.Clouds {
		c := &cs.Clouds[i]
		if len(c.Mean) != nf || len(c.Var) != nf {
			return fmt.Errorf("%w: probdiag: cloud %s has %d/%d stats entries, want %d",
				rerr.ErrArtifact, c.ID, len(c.Mean), len(c.Var), nf)
		}
		if c.Group >= len(cs.Groups) {
			return fmt.Errorf("%w: probdiag: cloud %s references group %d of %d",
				rerr.ErrArtifact, c.ID, c.Group, len(cs.Groups))
		}
		for j, v := range c.Var {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: probdiag: cloud %s has invalid variance %g at ω index %d",
					rerr.ErrArtifact, c.ID, v, j)
			}
		}
	}
	return nil
}

// pset is the per-sample composed fault set: every perturbable
// component's tolerance draw multiplied with the hypothesis's fault.
// It deliberately bypasses fault.NewMulti (which rejects zero
// deviations) — components whose composed deviation is exactly zero
// are simply dropped from the parts.
type pset struct {
	id    string
	parts []fault.Fault
}

func (p pset) ID() string           { return p.id }
func (p pset) Parts() []fault.Fault { return p.parts }

// buildScratch is one worker's reusable state for Build: each sample's
// perturbed sets are resolved into plan and solved into batch.
type buildScratch struct {
	plan    engine.Plan
	batch   engine.Batch
	psets   []fault.Set
	storage []pset
	factors []float64
}

// Build samples the tolerance distribution and assembles the cloud
// set for every fault set in the dictionary's universe plus any extra
// sets (double faults). Deterministic for a fixed cfg.Seed at every
// worker count.
func Build(ctx context.Context, d *dictionary.Dictionary, omegas []float64, extra []fault.Set, cfg Config) (*CloudSet, error) {
	if d == nil {
		return nil, fmt.Errorf("%w: probdiag: nil dictionary", rerr.ErrBadConfig)
	}
	if len(omegas) == 0 {
		return nil, fmt.Errorf("%w: probdiag: no frequencies", rerr.ErrBadConfig)
	}
	if cfg.Samples < 1 {
		return nil, fmt.Errorf("%w: probdiag: %d MC samples < 1", rerr.ErrBadConfig, cfg.Samples)
	}
	if cfg.Sigma < 0 || cfg.Sigma > 0.3 {
		return nil, fmt.Errorf("%w: probdiag: tolerance sigma %g outside [0, 0.3]", rerr.ErrBadConfig, cfg.Sigma)
	}
	if len(cfg.NoiseSigma) != 0 && len(cfg.NoiseSigma) != len(omegas) {
		return nil, fmt.Errorf("%w: probdiag: %d noise sigmas for %d frequencies",
			rerr.ErrBadConfig, len(cfg.NoiseSigma), len(omegas))
	}
	threshold := cfg.OverlapThreshold
	if threshold == 0 {
		threshold = DefaultOverlapThreshold
	}
	if threshold < 0 || threshold > 1 {
		return nil, fmt.Errorf("%w: probdiag: overlap threshold %g outside (0, 1]", rerr.ErrBadConfig, threshold)
	}

	eng := d.Engine()
	// Perturbable components: every valued element with a template
	// slot, in the golden circuit's schematic order — the same order
	// fault.Tolerance.Perturb walks, so draws line up with it.
	tmpl := eng.Template()
	var perturb []string
	for _, name := range d.Golden().ValuedNames() {
		if tmpl.HasSlot(name) {
			perturb = append(perturb, name)
		}
	}
	if len(perturb) == 0 {
		return nil, fmt.Errorf("%w: probdiag: circuit has no perturbable components", rerr.ErrBadConfig)
	}

	sets := append(fault.Sets(d.Universe().Faults()), extra...)
	if len(sets) == 0 {
		return nil, fmt.Errorf("%w: probdiag: empty fault universe", rerr.ErrBadConfig)
	}

	nsets, nfreq, samples := len(sets), len(omegas), cfg.Samples
	flat := make([]float64, samples*nsets*nfreq)
	// Every sample's composed sets carry their hypothesis's ID, which
	// only engine error messages read: render each once.
	ids := make([]string, nsets)
	for si, set := range sets {
		ids[si] = set.ID()
	}
	sampleErrs := make([]error, samples)

	// One scratch per worker, made at the worker's first sample.
	scratch := make([]*buildScratch, fanout.Workers(samples, cfg.Workers))
	runSample := func(w, i int) error {
		sc := scratch[w]
		if sc == nil {
			sc = &buildScratch{
				psets:   make([]fault.Set, nsets),
				storage: make([]pset, nsets),
				factors: make([]float64, len(perturb)),
			}
			scratch[w] = sc
		}
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		for ci := range perturb {
			g := rng.NormFloat64()
			if g > 3 {
				g = 3
			}
			if g < -3 {
				g = -3
			}
			sc.factors[ci] = 1 + cfg.Sigma*g
		}
		for si, set := range sets {
			ps := &sc.storage[si]
			ps.id = ids[si]
			ps.parts = ps.parts[:0]
			parts := set.Parts()
			for ci, name := range perturb {
				scale := sc.factors[ci]
				for _, p := range parts {
					if p.Component == name {
						scale *= p.Scale()
						break
					}
				}
				if dev := scale - 1; dev != 0 {
					ps.parts = append(ps.parts, fault.Fault{Component: name, Deviation: dev})
				}
			}
			sc.psets[si] = *ps
		}
		err := engine.Resolve(eng, sc.psets, &sc.plan)
		if err == nil {
			err = eng.SolveInto(ctx, &sc.plan, omegas, 1, nil, &sc.batch)
		}
		if err != nil {
			if errors.Is(err, rerr.ErrCanceled) {
				return err
			}
			sampleErrs[i] = err // singular draw: drop the sample, keep building
			return nil
		}
		base := i * nsets * nfreq
		for si, row := range sc.batch.Mags {
			off := base + si*nfreq
			for j, m := range row {
				flat[off+j] = m - sc.batch.Golden[j]
			}
		}
		return nil
	}
	if err := fanout.Run(ctx, samples, cfg.Workers, runSample); err != nil {
		return nil, err
	}

	failed := 0
	var firstErr error
	for _, e := range sampleErrs {
		if e != nil {
			failed++
			if firstErr == nil {
				firstErr = e
			}
		}
	}
	if failed == samples {
		return nil, fmt.Errorf("probdiag: all %d MC samples failed: %w", samples, firstErr)
	}

	cs := &CloudSet{
		Omegas:           append([]float64(nil), omegas...),
		Sigma:            cfg.Sigma,
		Samples:          samples,
		Seed:             cfg.Seed,
		FailedSamples:    failed,
		OverlapThreshold: threshold,
		Clouds:           make([]Cloud, nsets),
	}
	if len(cfg.NoiseSigma) != 0 {
		cs.NoiseVar = make([]float64, nfreq)
		for j, s := range cfg.NoiseSigma {
			cs.NoiseVar[j] = s * s
		}
	}

	// Sequential reduce in (set, sample) order: bit-identical for any
	// worker count. Two-pass mean/variance over the surviving samples.
	var extent float64
	for si, set := range sets {
		parts := set.Parts()
		c := &cs.Clouds[si]
		c.ID = ids[si]
		c.Key = diagnosis.SetKey(set)
		c.Components = make([]string, len(parts))
		c.Deviations = make([]float64, len(parts))
		for k, p := range parts {
			c.Components[k] = p.Component
			c.Deviations[k] = p.Deviation
		}
		c.Mean = make([]float64, nfreq)
		c.Var = make([]float64, nfreq)
		c.Group = -1
		for j := 0; j < nfreq; j++ {
			var sum float64
			n := 0
			for i := 0; i < samples; i++ {
				if sampleErrs[i] != nil {
					continue
				}
				sum += flat[i*nsets*nfreq+si*nfreq+j]
				n++
			}
			mean := sum / float64(n)
			c.Mean[j] = mean
			if n >= 2 {
				var acc float64
				for i := 0; i < samples; i++ {
					if sampleErrs[i] != nil {
						continue
					}
					dv := flat[i*nsets*nfreq+si*nfreq+j] - mean
					acc += dv * dv
				}
				c.Var[j] = acc / float64(n-1)
			}
			if a := math.Abs(mean); a > extent {
				extent = a
			}
		}
	}
	if extent == 0 {
		extent = 1
	}
	cs.VarFloor = (varFloorRel * extent) * (varFloorRel * extent)

	cs.buildGroups()
	return cs, nil
}

// totalVar is the scoring variance of cloud c at frequency j: cloud
// spread + measurement noise + floor.
func (cs *CloudSet) totalVar(c *Cloud, j int) float64 {
	v := c.Var[j] + cs.VarFloor
	if len(cs.NoiseVar) != 0 {
		v += cs.NoiseVar[j]
	}
	return v
}

// buildGroups partitions the clouds into ambiguity groups: union-find
// over pairs whose Bhattacharyya coefficient exp(−D_B) meets the
// threshold, with measurement noise and the variance floor inside the
// per-frequency variances (the same σ² the likelihood uses).
func (cs *CloudSet) buildGroups() {
	n := len(cs.Clouds)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	logThresh := math.Log(cs.OverlapThreshold) // overlap ≥ τ  ⇔  D_B ≤ −ln τ
	for a := 0; a < n; a++ {
		ca := &cs.Clouds[a]
		for b := a + 1; b < n; b++ {
			cb := &cs.Clouds[b]
			var db float64
			for j := range cs.Omegas {
				va, vb := cs.totalVar(ca, j), cs.totalVar(cb, j)
				avg := 0.5 * (va + vb)
				dm := ca.Mean[j] - cb.Mean[j]
				db += dm * dm / (8 * avg)
				db += 0.5 * math.Log(avg/math.Sqrt(va*vb))
				if db > -logThresh {
					break // already past the cut; no need to finish the sum
				}
			}
			if db <= -logThresh {
				ra, rb := find(a), find(b)
				if ra != rb {
					parent[rb] = ra
				}
			}
		}
	}
	members := make(map[int][]int)
	for i := range cs.Clouds {
		r := find(i)
		members[r] = append(members[r], i)
	}
	roots := make([]int, 0, len(members))
	for r, m := range members {
		if len(m) >= 2 {
			roots = append(roots, r)
		}
	}
	sort.Ints(roots) // deterministic group order: first member index
	cs.Groups = nil
	for gi, r := range roots {
		ids := make([]string, 0, len(members[r]))
		for _, i := range members[r] {
			cs.Clouds[i].Group = gi
			ids = append(ids, cs.Clouds[i].ID)
		}
		cs.Groups = append(cs.Groups, ids)
	}
}

// Score implements diagnosis.CloudModel: Gaussian log-likelihood of
// the point under every cloud, softmax posterior under equal priors,
// aggregation per component-set key, and the winner's ambiguity
// group.
func (cs *CloudSet) Score(point []float64) (*diagnosis.ProbResult, error) {
	nf := len(cs.Omegas)
	if len(point) != nf {
		return nil, fmt.Errorf("%w: probdiag: point has %d dims, clouds have %d", rerr.ErrBadConfig, len(point), nf)
	}
	n := len(cs.Clouds)
	if n == 0 {
		return nil, fmt.Errorf("%w: probdiag: empty cloud set", rerr.ErrBadConfig)
	}
	// One allocation holds the log-likelihoods and the posteriors.
	buf := make([]float64, 2*n)
	ll, post := buf[:n:n], buf[n:]
	best := 0
	for i := range cs.Clouds {
		c := &cs.Clouds[i]
		var acc float64
		for j := 0; j < nf; j++ {
			v := cs.totalVar(c, j)
			d := point[j] - c.Mean[j]
			acc += d*d/v + math.Log(2*math.Pi*v)
		}
		ll[i] = -0.5 * acc
		if ll[i] > ll[best] {
			best = i
		}
	}
	// Softmax over all clouds (equal priors), shifted by the max for
	// stability; then aggregate per component-set key in cloud order.
	var norm float64
	for i := range ll {
		post[i] = math.Exp(ll[i] - ll[best])
		norm += post[i]
	}
	// aggs holds one aggregate per key in first-seen order; index maps a
	// key to its aggregate.
	type agg struct {
		key     string
		prob    float64
		bestIdx int
	}
	var aggs []agg
	index := make(map[string]int)
	for i := range cs.Clouds {
		post[i] /= norm
		k := cs.Clouds[i].Key
		ai, ok := index[k]
		if !ok {
			ai = len(aggs)
			index[k] = ai
			aggs = append(aggs, agg{key: k, bestIdx: i})
		}
		a := &aggs[ai]
		a.prob += post[i]
		if ll[i] > ll[a.bestIdx] {
			a.bestIdx = i
		}
	}
	res := &diagnosis.ProbResult{
		Candidates: make([]diagnosis.ProbCandidate, len(aggs)),
		Point:      append([]float64(nil), point...),
	}
	for ai, a := range aggs {
		c := &cs.Clouds[a.bestIdx]
		res.Candidates[ai] = diagnosis.ProbCandidate{
			Key:           a.key,
			Components:    c.Components,
			ID:            c.ID,
			Deviations:    c.Deviations,
			LogLikelihood: ll[a.bestIdx],
			Probability:   a.prob,
		}
	}
	slices.SortStableFunc(res.Candidates, func(a, b diagnosis.ProbCandidate) int {
		// Unequal is not ordered when a value is NaN: the first unequal
		// field decides, and a NaN never sorts first.
		if a.Probability != b.Probability {
			if a.Probability > b.Probability {
				return -1
			}
			return 1
		}
		if a.LogLikelihood != b.LogLikelihood {
			if a.LogLikelihood > b.LogLikelihood {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Key, b.Key)
	})
	res.Confidence = res.Candidates[0].Probability
	if g := cs.Clouds[best].Group; g >= 0 {
		res.AmbiguityGroup = append([]string(nil), cs.Groups[g]...)
	}
	return res, nil
}
