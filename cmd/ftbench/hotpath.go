package main

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/trajectory"
)

// hotpathEntry is one measured hot-path quantity in the emitted report.
type hotpathEntry struct {
	// Name identifies the measurement (fitness_eval, trajectory_build,
	// ga_paper_params).
	Name string `json:"name"`
	// NsPerOp is wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per operation.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// BytesPerOp is heap bytes per operation.
	BytesPerOp int64 `json:"bytes_per_op"`
	// N is the iteration count the benchmark framework settled on.
	N int `json:"n"`
}

// hotpathReport is the BENCH_hotpath.json schema: the performance record
// of the GA fitness hot path, regenerated per change so the perf
// trajectory of the repository is tracked in-tree alongside the code.
// The envelope fields identify the machine and configuration the numbers
// were measured on — see newBenchEnvelope.
type hotpathReport struct {
	benchEnvelope
	Entries []hotpathEntry `json:"entries"`
}

// entry returns the named entry, or nil.
func (rep *hotpathReport) entry(name string) *hotpathEntry {
	for i := range rep.Entries {
		if rep.Entries[i].Name == name {
			return &rep.Entries[i]
		}
	}
	return nil
}

// check holds the report's machine-independent invariants: all three
// measurements are present and timed, and the steady-state fitness
// evaluation allocates nothing.
func (rep *hotpathReport) check() error {
	var v violations
	for _, name := range []string{"fitness_eval", "trajectory_build", "ga_paper_params"} {
		if e := rep.entry(name); e == nil {
			v.add("entry %s missing", name)
		} else if e.NsPerOp <= 0 {
			v.add("%s has no timing (%g ns/op)", name, e.NsPerOp)
		}
	}
	if e := rep.entry("fitness_eval"); e != nil && e.AllocsPerOp != 0 {
		v.add("fitness_eval allocates %d allocs/op, want 0", e.AllocsPerOp)
	}
	return v.err("hotpath report")
}

// hotpath measures the GA fitness hot path with the testing.Benchmark
// machinery — the same numbers `go test -bench` reports — and writes
// them to BENCH_hotpath.json:
//
//   - fitness_eval: one steady-state fitness evaluation (reused
//     trajectory.Builder rebuild + cached intersection count);
//   - trajectory_build: one cold trajectory.Build (fresh storage, the
//     one-shot path diagnosis uses);
//   - ga_paper_params: the paper's full GA (128 individuals × 15
//     generations) through Session.Optimize.
func (r *runner) hotpath() error {
	path := r.reportPath("hotpath")
	r.header("HOTPATH", "GA fitness hot-path benchmarks → "+path)
	s, err := repro.NewSession(repro.PaperCUT())
	if err != nil {
		return err
	}
	d := s.Dictionary()

	rep := &hotpathReport{benchEnvelope: newBenchEnvelope(r.date)}
	err = r.record(rep, "fitness_eval", testing.Benchmark(func(b *testing.B) {
		bu := trajectory.NewBuilder(d)
		omegas := []float64{0.5, 2}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			omegas[0] = 0.5 + float64(i%100)*1e-5
			omegas[1] = 2 + float64(i%100)*1e-5
			m, err := bu.Build(r.ctx, omegas)
			if err != nil {
				b.Fatal(err)
			}
			if m.Intersections() < 0 {
				b.Fatal("negative intersection count")
			}
		}
	}))
	if err != nil {
		return fmt.Errorf("hotpath: %w", err)
	}

	err = r.record(rep, "trajectory_build", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w1 := 0.5 + float64(i%100)*1e-5
			w2 := 2.0 + float64(i%100)*1e-5
			if _, err := trajectory.Build(r.ctx, d, []float64{w1, w2}); err != nil {
				b.Fatal(err)
			}
		}
	}))
	if err != nil {
		return fmt.Errorf("hotpath: %w", err)
	}

	err = r.record(rep, "ga_paper_params", testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cfg := repro.PaperOptimizeConfig(s.CUT().Omega0)
			cfg.Seed = int64(i + 1)
			tv, err := s.Optimize(r.ctx, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if tv.Fitness <= 0 {
				b.Fatal("GA found nothing")
			}
		}
	}))
	if err != nil {
		return fmt.Errorf("hotpath: %w", err)
	}

	if err := r.writeReport(path, rep); err != nil {
		return fmt.Errorf("hotpath: %w", err)
	}
	if r.gate != "" {
		return r.gateHotpath(rep)
	}
	return nil
}

// gateHotpath holds the freshly measured report to its invariants
// (check) and to the baseline named by -gate: fitness_eval and
// trajectory_build may not be slower than baseline by more than
// -gate-tol (fractional, default 0.10). ga_paper_params is
// informational only — the full GA's variance across machines is too
// high to gate on.
func (r *runner) gateHotpath(rep *hotpathReport) error {
	var base hotpathReport
	if err := readReport(r.gate, &base); err != nil {
		return fmt.Errorf("hotpath gate: %w", err)
	}
	tol := r.gateTol
	var v violations
	for _, name := range []string{"fitness_eval", "trajectory_build"} {
		b, n := base.entry(name), rep.entry(name)
		if b == nil || n == nil {
			return fmt.Errorf("hotpath gate: entry %q missing (baseline %v, new %v)", name, b != nil, n != nil)
		}
		ratio := n.NsPerOp / b.NsPerOp
		status := "ok"
		if ratio > 1+tol {
			status = "FAIL"
			v.add("%s regressed %.1f%% (%.0f → %.0f ns/op, tol %.0f%%)",
				name, (ratio-1)*100, b.NsPerOp, n.NsPerOp, tol*100)
		}
		r.printf("  gate %-18s %8.0f → %8.0f ns/op  (%+.1f%%, tol %.0f%%)  %s\n",
			name, b.NsPerOp, n.NsPerOp, (ratio-1)*100, tol*100, status)
	}
	if err := rep.check(); err != nil {
		v.add("%v", err)
	}
	if err := v.err("hotpath gate"); err != nil {
		return err
	}
	r.printf("  gate passed against %s\n", r.gate)
	return nil
}
