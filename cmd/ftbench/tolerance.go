package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/circuits"
	"repro/internal/diagnosis"
	"repro/internal/dictionary"
	"repro/internal/fault"
	"repro/internal/probdiag"
	"repro/internal/trajectory"
)

// Tolerance-experiment parameters. Everything is pinned so the emitted
// report is machine-independent: accuracy counts come from seeded
// Monte-Carlo draws and deterministic LU solves, never from timing.
const (
	// tolSigma is the component tolerance of both the cloud model and
	// the simulated boards.
	tolSigma = 0.05
	// tolNoiseFrac scales the measurement noise: σ_j is this fraction
	// of the golden magnitude at test frequency j, applied to every
	// hold-out measurement and declared to the cloud model.
	tolNoiseFrac = 0.01
)

// tolSampleCounts is the Monte-Carlo budget sweep: one cloud model per
// count, scored against the same hold-out.
var tolSampleCounts = []int{25, 50, 100, 200}

// tolHoldOutDevs are the injected off-grid deviations per component.
var tolHoldOutDevs = []float64{-0.3, -0.15, 0.15, 0.3}

// toleranceSample is one (CUT, sample count) measurement.
type toleranceSample struct {
	// Samples is the Monte-Carlo budget of the cloud model.
	Samples int `json:"samples"`
	// LikelihoodTop1 counts trials whose likelihood-ranked best
	// hypothesis named the injected component.
	LikelihoodTop1 int `json:"likelihood_top1"`
	// GroupResolved counts trials where the injected component is the
	// best hypothesis or a member of its reported ambiguity group —
	// the "diagnosis up to tolerance-induced ambiguity" yield.
	GroupResolved int `json:"group_resolved"`
	// AmbiguityGroups is the number of precomputed overlap groups.
	AmbiguityGroups int `json:"ambiguity_groups"`
	// MeanConfidence averages the posterior confidence over trials.
	MeanConfidence float64 `json:"mean_confidence"`
}

// toleranceCut is one CUT's row of the report.
type toleranceCut struct {
	Name   string    `json:"name"`
	Omegas []float64 `json:"omegas"`
	// Trials is the hold-out size (components × deviations).
	Trials int `json:"trials"`
	// NearestTop1 is the classic nearest-signature baseline on the
	// same noisy hold-out.
	NearestTop1 int               `json:"nearest_top1"`
	Samples     []toleranceSample `json:"samples"`
}

// toleranceReport is the BENCH_tolerance.json schema. Unlike the
// hotpath report it carries no timings — every field is deterministic
// given (seed, sigma, noise_frac, sample_counts), which is what
// TestToleranceReportReproduces re-derives and compares.
type toleranceReport struct {
	Date         string         `json:"date"`
	Seed         int64          `json:"seed"`
	Sigma        float64        `json:"sigma"`
	NoiseFrac    float64        `json:"noise_frac"`
	HoldOutDevs  []float64      `json:"hold_out_devs"`
	SampleCounts []int          `json:"sample_counts"`
	Cuts         []toleranceCut `json:"cuts"`

	// missing lists the toleranceReportKeys a decoded report lacked.
	missing []string
}

// toleranceReportKeys are the keys every BENCH_tolerance.json must carry.
var toleranceReportKeys = []string{"seed", "sigma", "noise_frac", "sample_counts", "cuts"}

// UnmarshalJSON decodes a report and records which toleranceReportKeys
// it lacks, which a zero seed would otherwise hide.
func (rep *toleranceReport) UnmarshalJSON(data []byte) error {
	type plain toleranceReport
	if err := json.Unmarshal(data, (*plain)(rep)); err != nil {
		return err
	}
	var err error
	rep.missing, err = missingKeys(data, toleranceReportKeys...)
	return err
}

// check holds the report's invariants: the sweep is complete, every
// count is a share of its CUT's trials, likelihood top-1 never exceeds
// the group-resolved count, confidences are probabilities, and at the
// largest sample budget (each CUT's last row) likelihood top-1 is never
// below the nearest-signature baseline.
func (rep *toleranceReport) check() error {
	var v violations
	if len(rep.missing) > 0 {
		v.add("missing keys %s", strings.Join(rep.missing, ", "))
	}
	if len(rep.SampleCounts) == 0 {
		v.add("empty sample_counts")
	}
	if len(rep.Cuts) == 0 {
		v.add("no CUT rows")
	}
	for _, c := range rep.Cuts {
		if c.Trials <= 0 {
			v.add("%s: no trials", c.Name)
		}
		if len(c.Samples) != len(rep.SampleCounts) {
			v.add("%s: %d sample rows for %d sample counts", c.Name, len(c.Samples), len(rep.SampleCounts))
		}
		for _, s := range c.Samples {
			if s.LikelihoodTop1 < 0 || s.LikelihoodTop1 > s.GroupResolved || s.GroupResolved > c.Trials {
				v.add("%s at %d samples: want 0 ≤ likelihood_top1 %d ≤ group_resolved %d ≤ trials %d",
					c.Name, s.Samples, s.LikelihoodTop1, s.GroupResolved, c.Trials)
			}
			if s.MeanConfidence <= 0 || s.MeanConfidence > 1 {
				v.add("%s at %d samples: mean_confidence %g outside (0, 1]", c.Name, s.Samples, s.MeanConfidence)
			}
		}
		if len(c.Samples) > 0 {
			last := c.Samples[len(c.Samples)-1]
			if last.LikelihoodTop1 < c.NearestTop1 {
				v.add("%s: likelihood top-1 %d/%d below nearest baseline %d/%d at %d samples",
					c.Name, last.LikelihoodTop1, c.Trials, c.NearestTop1, c.Trials, last.Samples)
			}
		}
	}
	return v.err("tolerance report")
}

// tolerance sweeps the Monte-Carlo budget of the probabilistic
// diagnosis model over every built-in CUT: simulate a noisy hold-out
// (component tolerances + measurement noise), diagnose it with the
// classic nearest-signature rule and with likelihood ranking at each
// sample count, and write BENCH_tolerance.json. The run fails, writing
// nothing, if the report breaks an invariant (check) — among them, at
// the largest budget, likelihood top-1 below the nearest baseline on
// any CUT.
func (r *runner) tolerance() error {
	path := r.reportPath("tolerance")
	r.header("TOLERANCE", "likelihood vs nearest-signature diagnosis under tolerances → "+path)
	rep := toleranceReport{
		Date:         reportDate(r.date),
		Seed:         r.seed,
		Sigma:        tolSigma,
		NoiseFrac:    tolNoiseFrac,
		HoldOutDevs:  tolHoldOutDevs,
		SampleCounts: tolSampleCounts,
	}
	for ci, cut := range circuits.All() {
		row, err := r.toleranceCut(ci, cut)
		if err != nil {
			return fmt.Errorf("tolerance: %s: %w", cut.Circuit.Name(), err)
		}
		rep.Cuts = append(rep.Cuts, *row)
		last := row.Samples[len(row.Samples)-1]
		r.printf("  %-18s trials %3d  nearest %3d  likelihood",
			row.Name, row.Trials, row.NearestTop1)
		for _, sr := range row.Samples {
			r.printf(" %3d", sr.LikelihoodTop1)
		}
		r.printf("  (groups %d, mean confidence %.2f)\n", last.AmbiguityGroups, last.MeanConfidence)
	}
	if err := rep.check(); err != nil {
		return err
	}
	if err := r.writeReport(path, &rep); err != nil {
		return fmt.Errorf("tolerance: %w", err)
	}
	return nil
}

// toleranceCut runs the sweep for one CUT.
func (r *runner) toleranceCut(ci int, cut circuits.CUT) (*toleranceCut, error) {
	u, err := fault.PaperUniverse(cut.Passives)
	if err != nil {
		return nil, err
	}
	d, err := dictionary.New(cut.Circuit, cut.Source, cut.Output, u)
	if err != nil {
		return nil, err
	}
	omegas := []float64{cut.Omega0 / 2, cut.Omega0, cut.Omega0 * 2}

	// Measurement noise, declared identically to the hold-out and the
	// cloud model: σ_j = noiseFrac × golden magnitude.
	noiseSigma := make([]float64, len(omegas))
	for j, w := range omegas {
		g, err := d.GoldenResponse(w)
		if err != nil {
			return nil, err
		}
		noiseSigma[j] = tolNoiseFrac * g
	}

	// The noisy hold-out: every component at every off-grid deviation,
	// on a board whose other components drift at tolSigma, measured
	// with additive Gaussian noise.
	rng := rand.New(rand.NewSource(r.seed*1000 + int64(ci)))
	type trial struct {
		comp string
		sig  []float64
	}
	var trials []trial
	for _, comp := range u.Components {
		for _, dev := range tolHoldOutDevs {
			board, err := fault.Tolerance{Sigma: tolSigma}.Perturb(d.Golden(), rng)
			if err != nil {
				return nil, err
			}
			if err := board.ScaleValue(comp, 1+dev); err != nil {
				return nil, err
			}
			sig, err := d.CircuitSignature(board, omegas)
			if err != nil {
				return nil, err
			}
			for j := range sig {
				sig[j] += noiseSigma[j] * rng.NormFloat64()
			}
			trials = append(trials, trial{comp: comp, sig: sig})
		}
	}

	// Nearest-signature baseline on the same hold-out.
	tm, err := trajectory.Build(nil, d, omegas)
	if err != nil {
		return nil, err
	}
	dg, err := diagnosis.New(tm)
	if err != nil {
		return nil, err
	}
	row := &toleranceCut{Name: cut.Circuit.Name(), Omegas: omegas, Trials: len(trials)}
	for _, tr := range trials {
		res, err := dg.Diagnose(tr.sig)
		if err != nil {
			return nil, err
		}
		if res.Best().Component == tr.comp {
			row.NearestTop1++
		}
	}

	for _, samples := range tolSampleCounts {
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
		cs, err := probdiag.Build(r.ctx, d, omegas, nil, probdiag.Config{
			Sigma:      tolSigma,
			Samples:    samples,
			Seed:       r.seed*100 + int64(ci),
			NoiseSigma: noiseSigma,
		})
		if err != nil {
			return nil, err
		}
		sr := toleranceSample{Samples: samples, AmbiguityGroups: len(cs.Groups)}
		var confSum float64
		for _, tr := range trials {
			res, err := cs.Score(tr.sig)
			if err != nil {
				return nil, err
			}
			confSum += res.Confidence
			hit := res.Best().Key == tr.comp
			if hit {
				sr.LikelihoodTop1++
			}
			if !hit {
				// Group-resolved: the injected component hides inside
				// the winner's ambiguity group.
				for _, id := range res.AmbiguityGroup {
					set, err := fault.ParseSetID(id)
					if err != nil {
						return nil, err
					}
					if diagnosis.SetKey(set) == tr.comp {
						hit = true
						break
					}
				}
			}
			if hit {
				sr.GroupResolved++
			}
		}
		sr.MeanConfidence = confSum / float64(len(trials))
		row.Samples = append(row.Samples, sr)
	}
	return row, nil
}
