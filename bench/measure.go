package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime/metrics"
	"time"

	"repro/internal/engine"
	"repro/internal/numeric"
)

// sizes are the workload sizes. defaultSizes is the benchmark; tests run
// every workload path on tiny ones.
type sizes struct {
	// atpg-paper
	gaRuns   int // cap on measured GA runs (0: until the time is up)
	gaChecks int // runs re-checked at one worker

	// dict-grid
	gridCUT    string
	gridOmegas int
	gridChecks int
	gridOps    int // cap on measured builds (0: until the time is up)

	// dict-pairs
	pairsCUT    string
	pairsStride int // every pairsStride-th passive is a fault target
	pairsOmegas int
	pairsChecks int
	pairsOps    int

	// serve-open
	serveRates    []float64     // open-loop rate per step, light to busy, req/s
	serveOpenStep time.Duration // length of each open-loop step
	serveClients  int           // closed-loop callers of the saturation step
	servePool     int           // distinct generated requests
}

func defaultSizes() sizes {
	return sizes{
		gaChecks: 3,

		gridCUT:    "rc-grid-32",
		gridOmegas: 32,
		gridChecks: 4,

		pairsCUT:    "opamp-cascade-32",
		pairsStride: 5,
		pairsOmegas: 16,
		pairsChecks: 16,

		serveRates:    []float64{2000, 4000},
		serveOpenStep: 4 * time.Second,
		serveClients:  64,
		servePool:     4096,
	}
}

// until reports whether a closed loop that started at start and has
// completed n ops should run another: within the time budget and under
// the op cap (0: no cap).
func until(start time.Time, budget time.Duration, n, cap int) bool {
	return time.Since(start) < budget && (cap == 0 || n < cap)
}

// opTime is one timed op or set-up: its wall-clock time in ms, the
// heap it allocated in MB, and the calibration time in ms measured right
// after it.
type opTime struct{ wall, allocMB, calib float64 }

// calibrated is the op's wall time in ms on an idle reference core.
func (t opTime) calibrated() float64 { return t.wall * calibNominalMs / t.calib }

// startOp starts timing an op; the returned function stops it and then
// runs the calibration kernel.
func startOp() func() opTime {
	b0 := heapBytesMB()
	t0 := time.Now()
	return func() opTime {
		wall := float64(time.Since(t0)) / float64(time.Millisecond)
		allocMB := heapBytesMB() - b0
		return opTime{wall, allocMB, calibrate()}
	}
}

// heapBytesMB is the heap allocated by the process so far, in MB.
func heapBytesMB() float64 {
	_, b := heapAllocs()
	return float64(b) / 1e6
}

// logUniform draws n frequencies log-uniformly in [lo, hi].
func logUniform(rng *rand.Rand, lo, hi float64, n int) []float64 {
	a, b := math.Log10(lo), math.Log10(hi)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Pow(10, a+(b-a)*rng.Float64())
	}
	return out
}

// closedLoopMetrics fills the end-to-end metrics of a closed loop from
// its set-up times and the times of every op it attempted, failed ones
// included: a failed op costs its time and completes nothing. Ops per
// second is the share of ops that completed over the median calibrated
// op time; the median keeps an op the host stalled from moving it. It
// adds the raw wall-clock view of the same ops: median and tail op time
// and ops over their summed time.
func closedLoopMetrics(r *result, setups, ops []opTime) error {
	done := r.Attempted - r.Failed
	if done <= 0 {
		return fmt.Errorf("no op completed")
	}
	var wall, cal []float64
	var totalWall, totalMB float64
	for _, op := range ops {
		wall = append(wall, op.wall)
		cal = append(cal, op.calibrated())
		totalWall += op.wall
		totalMB += op.allocMB
	}
	n := float64(done)
	tv, pct, nt := tail(wall)
	r.extra("op_p50_ms", median(wall), "ms")
	r.extra("op_tail_ms", tv, "ms")
	r.extra("op_tail_pct", pct, "percentile")
	r.extra("op_tail_n", float64(nt), "count")
	r.extra("raw_ops_per_s", n/(totalWall/1e3), "1/s")
	opsPerS := n / float64(len(ops)) * 1e3 / median(cal)
	return endToEndMetrics(r, setups, ops, opsPerS, totalMB/n)
}

// endToEndMetrics fills the bounded end-to-end metrics — the median
// calibrated set-up time, calibrated ops per second and heap allocated
// per op — and the numbers every workload prints without a bound: the
// raw set-up time, the median calibration time (how fast the host ran),
// peak RSS and the failed share.
func endToEndMetrics(r *result, setups, ops []opTime, opsPerS, allocMBPerOp float64) error {
	var cal, wall, calib []float64
	for _, s := range setups {
		cal, wall = append(cal, s.calibrated()/1e3), append(wall, s.wall/1e3)
	}
	for _, t := range append(append([]opTime(nil), setups...), ops...) {
		calib = append(calib, t.calib)
	}
	r.extra("raw_setup_s", median(wall), "s")
	r.extra("calib_ms", median(calib), "ms")
	r.extra("peak_rss_mb", peakRSSMB(), "MB")
	r.extra("failed_share", failedShare(r.Attempted, r.Failed), "fraction")
	return r.fill(endToEnd, map[string]float64{
		"setup_s":         median(cal),
		"ops_per_s":       opsPerS,
		"alloc_mb_per_op": allocMBPerOp,
	})
}

// overheadShare reports how much longer the median traced op took than
// the median untraced one, calibrated, and prints both medians raw.
func overheadShare(r *result, traced, untraced []opTime) float64 {
	med := func(ops []opTime, calibrated bool) float64 {
		var xs []float64
		for _, op := range ops {
			if calibrated {
				xs = append(xs, op.calibrated())
			} else {
				xs = append(xs, op.wall)
			}
		}
		return median(xs)
	}
	r.extra("traced_op_p50_ms", med(traced, false), "ms")
	r.extra("untraced_op_p50_ms", med(untraced, false), "ms")
	if b := med(untraced, true); b > 0 {
		return med(traced, true)/b - 1
	}
	return 0
}

var allocSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

// heapAllocs returns the cumulative heap allocation count (tiny blocks
// included, as runtime.MemStats.Mallocs counts them) and bytes.
func heapAllocs() (objects, bytes uint64) {
	s := make([]metrics.Sample, len(allocSamples))
	copy(s, allocSamples)
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64(), s[2].Value.Uint64()
}

// statsDelta is the engine path-counter change between two snapshots.
func statsDelta(a, b engine.PathStatsSnapshot) engine.PathStatsSnapshot {
	return engine.PathStatsSnapshot{
		DenseFactors:           b.DenseFactors - a.DenseFactors,
		SparseFactors:          b.SparseFactors - a.SparseFactors,
		Rank1Solves:            b.Rank1Solves - a.Rank1Solves,
		RankKSolves:            b.RankKSolves - a.RankKSolves,
		ExactFallbacks:         b.ExactFallbacks - a.ExactFallbacks,
		SupernodalRefactors:    b.SupernodalRefactors - a.SupernodalRefactors,
		PartialRefactors:       b.PartialRefactors - a.PartialRefactors,
		PartialRefactorColumns: b.PartialRefactorColumns - a.PartialRefactorColumns,
		DenseFallbackExact:     b.DenseFallbackExact - a.DenseFallbackExact,
		DenseFallbackSingular:  b.DenseFallbackSingular - a.DenseFallbackSingular,
	}
}

// relClose reports whether a and b agree to 1e-9 relative, with the
// repository's cross-check floor: magnitudes below 1e-3 of the peak
// golden response compare against that floor instead of themselves.
func relClose(a, b, peak float64) bool {
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1e-3*peak)
	return math.Abs(a-b) <= 1e-9*scale
}

// columnSplit replays one engine column's three numeric layers from
// outside, frequency by frequency: stamping the golden A(jω) onto the
// compiled sparse pattern, refactoring FreqBlock frequencies in one
// blocked walk, and the block solve of 1 + cols right-hand sides (the
// golden solve plus one z-solve per distinct fault slot).
type columnSplit struct {
	tm       *engine.Template
	sym      *numeric.SparseSymbolic
	res, ims [numeric.FreqBlock][]float64
	lus      [numeric.FreqBlock]numeric.SparseLU
	bref     numeric.BlockRefactorer
	rhs, dst *numeric.Block
}

func newColumnSplit(tm *engine.Template, cols int, rng *rand.Rand) (*columnSplit, error) {
	sym := tm.SparsePattern()
	if sym == nil {
		return nil, fmt.Errorf("no sparse pattern compiled")
	}
	c := &columnSplit{tm: tm, sym: sym}
	for f := range c.res {
		c.res[f] = make([]float64, sym.LUNNZ())
		c.ims[f] = make([]float64, sym.LUNNZ())
	}
	n := sym.N()
	c.rhs = numeric.NewBlock(n, 1+cols)
	c.dst = numeric.NewBlock(n, 1+cols)
	if err := c.rhs.SetColumn(0, tm.RHS()); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		for j := 1; j <= cols; j++ {
			c.rhs.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	return c, nil
}

// run replays the split over omegas (a multiple of FreqBlock long),
// recording one span per stamp, per blocked refactor and per block
// solve under parent.
func (c *columnSplit) run(tr *trace, parent uint64, omegas []float64) error {
	if len(omegas)%numeric.FreqBlock != 0 {
		return fmt.Errorf("column split needs a multiple of %d frequencies, got %d", numeric.FreqBlock, len(omegas))
	}
	for g := 0; g < len(omegas); g += numeric.FreqBlock {
		for f := 0; f < numeric.FreqBlock; f++ {
			sp := tr.start(parent, "engine.stamp")
			err := c.tm.StampSparse(c.res[f], c.ims[f], omegas[g+f])
			tr.end(sp)
			if err != nil {
				return err
			}
		}
		sp := tr.start(parent, "numeric.refactor")
		errs := c.bref.RefactorBlock(c.sym, &c.lus, &c.res, &c.ims)
		tr.end(sp)
		for f, err := range errs {
			if err != nil {
				return fmt.Errorf("refactor at ω=%g: %w", omegas[g+f], err)
			}
		}
		for f := 0; f < numeric.FreqBlock; f++ {
			sp := tr.start(parent, "numeric.solve")
			err := c.lus[f].SolveBlockInto(c.dst, c.rhs)
			tr.end(sp)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// perFreqUs converts the tracer's per-span means into per-frequency µs
// for the stamp, refactor and solve layers (one blocked refactor covers
// FreqBlock frequencies).
func perFreqUs(t *tracer) (stamp, refactor, solve float64) {
	return t.meanUs("engine.stamp"), t.meanUs("numeric.refactor") / numeric.FreqBlock, t.meanUs("numeric.solve")
}
