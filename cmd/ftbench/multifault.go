package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/analysis"
	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/numeric"
)

// multifault measures the rank-k batch path against the classic
// per-fault full-LU clone path on the paper CUT's complete double-fault
// universe (every component pair × paper deviations), and writes
// BENCH_multifault.json:
//
//   - multifault_batched: one engine.BatchResponsesSets pass over the
//     whole (pair × frequency) grid — per frequency one golden LU, one
//     z-solve per distinct slot, and a k×k Woodbury solve per pair;
//   - multifault_clones: the same grid the pre-rank-k way — clone the
//     circuit per pair, reassemble, and fully factor per (pair,
//     frequency).
//
// Before timing, the two paths are cross-checked to 1e-9 relative
// agreement, so the recorded speedup is between verified-equal answers.
func (r *runner) multifault() error {
	path := r.reportPath("multifault")
	r.header("MULTIFAULT", "batched rank-k vs full-LU clones on the double-fault universe → "+path)
	cut := circuits.NFLowpass7()
	u, err := fault.PaperUniverse(cut.Passives)
	if err != nil {
		return err
	}
	pairs, err := u.Pairs(nil, 0)
	if err != nil {
		return err
	}
	sets := fault.Sets(pairs)
	eng, err := engine.New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		return err
	}
	omegas := numeric.Logspace(cut.Omega0/100, cut.Omega0*100, 9)
	r.printf("  universe: %d double faults × %d frequencies\n", len(pairs), len(omegas))

	// cloneGrid is the baseline: per pair, apply to a clone, assemble,
	// and solve the full system per frequency.
	cloneGrid := func() ([][]float64, error) {
		out := make([][]float64, len(pairs))
		for i, p := range pairs {
			faulty, err := p.Apply(cut.Circuit)
			if err != nil {
				return nil, err
			}
			ac, err := analysis.NewAC(faulty)
			if err != nil {
				return nil, err
			}
			row := make([]float64, len(omegas))
			for j, w := range omegas {
				h, err := ac.Transfer(cut.Source, cut.Output, w)
				if err != nil {
					return nil, err
				}
				row[j] = cmplx.Abs(h)
			}
			out[i] = row
		}
		return out, nil
	}

	// Cross-check once before timing anything.
	batch, err := eng.BatchResponsesSets(r.ctx, sets, omegas, 0)
	if err != nil {
		return err
	}
	ref, err := cloneGrid()
	if err != nil {
		return err
	}
	var peak float64
	for _, g := range batch.Golden {
		peak = math.Max(peak, g)
	}
	for i := range pairs {
		for j := range omegas {
			a, b := batch.Mags[i][j], ref[i][j]
			scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1e-3*peak)
			if math.Abs(a-b)/scale > 1e-9 {
				return fmt.Errorf("multifault: %s at ω=%g: batched %.15g vs clone %.15g",
					pairs[i].ID(), omegas[j], a, b)
			}
		}
	}
	r.printf("  cross-check: batched == clones to 1e-9 on all %d×%d responses\n", len(pairs), len(omegas))

	rep := &hotpathReport{benchEnvelope: newBenchEnvelope(r.date)}
	err = r.record(rep, "multifault_batched", testing.Benchmark(func(b *testing.B) {
		var out engine.Batch
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := eng.BatchResponsesSetsInto(r.ctx, sets, omegas, 1, &out); err != nil {
				b.Fatal(err)
			}
		}
	}))
	if err != nil {
		return fmt.Errorf("multifault: %w", err)
	}
	err = r.record(rep, "multifault_clones", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := cloneGrid(); err != nil {
				b.Fatal(err)
			}
		}
	}))
	if err != nil {
		return fmt.Errorf("multifault: %w", err)
	}
	if len(rep.Entries) == 2 && rep.Entries[0].NsPerOp > 0 {
		r.printf("  speedup: %.1f× (batched rank-k over per-pair clones)\n",
			rep.Entries[1].NsPerOp/rep.Entries[0].NsPerOp)
	}

	if err := r.writeReport(path, rep); err != nil {
		return fmt.Errorf("multifault: %w", err)
	}
	return nil
}
