package repro

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestPaperCUT(t *testing.T) {
	cut := PaperCUT()
	if len(cut.Passives) != 7 {
		t.Fatalf("paper CUT has %d passives, want 7", len(cut.Passives))
	}
	if err := cut.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBenchmarksAll(t *testing.T) {
	bs := Benchmarks()
	if len(bs) < 5 {
		t.Fatalf("only %d benchmarks", len(bs))
	}
	for _, b := range bs {
		if _, err := BenchmarkByName(b.Circuit.Name()); err != nil {
			t.Errorf("%s: %v", b.Circuit.Name(), err)
		}
	}
	if _, err := BenchmarkByName("no-such-cut"); err == nil {
		t.Fatal("bogus benchmark accepted")
	}
}

func TestPaperConstants(t *testing.T) {
	if len(PaperDeviations()) != 8 {
		t.Fatal("paper deviations wrong")
	}
	g := PaperGAConfig()
	if g.PopSize != 128 || g.Generations != 15 {
		t.Fatal("paper GA config wrong")
	}
	oc := PaperOptimizeConfig(1)
	if oc.NumFrequencies != 2 {
		t.Fatal("paper optimize config wrong")
	}
}

func TestSessionEndToEnd(t *testing.T) {
	s, err := NewSession(PaperCUT())
	if err != nil {
		t.Fatal(err)
	}
	if s.CUT().Circuit.Name() != "nf-lowpass-7" {
		t.Fatal("CUT accessor wrong")
	}
	// A reduced GA run end to end.
	ctx := context.Background()
	cfg := PaperOptimizeConfig(s.CUT().Omega0)
	cfg.GA.PopSize = 20
	cfg.GA.Generations = 5
	tv, err := s.Optimize(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tv.Omegas) != 2 {
		t.Fatalf("test vector = %v", tv.Omegas)
	}
	fit, err := s.Fitness(ctx, tv.Omegas)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit-1/(1+float64(tv.Intersections))) > 1e-12 {
		t.Fatalf("fitness mismatch: %g vs I=%d", fit, tv.Intersections)
	}
	m, err := s.Trajectories(ctx, tv.Omegas)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Trajectories) != 7 {
		t.Fatalf("trajectories = %d", len(m.Trajectories))
	}
	dg, err := s.Diagnoser(ctx, tv.Omegas)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dg.DiagnoseSet(s.Dictionary(), Fault{Component: "R2", Deviation: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best().Component == "" {
		t.Fatal("no diagnosis")
	}
	ev, err := s.Evaluate(ctx, tv.Omegas, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Total != 42 {
		t.Fatalf("default hold-out = %d trials", ev.Total)
	}
	if s.ATPG() == nil {
		t.Fatal("ATPG accessor nil")
	}
}

func TestNewSessionRejectsBadCUT(t *testing.T) {
	cut := PaperCUT()
	cut.Source = "missing"
	if _, err := NewSession(cut); err == nil {
		t.Fatal("bad CUT accepted")
	}
	if _, err := NewSession(PaperCUT(), WithDeviations(0)); err == nil {
		t.Fatal("zero deviation accepted")
	}
}

func TestNetlistRoundTripAPI(t *testing.T) {
	text := `api test
V1 in 0 1
R1 in out 1k
C1 out 0 1u
.end
`
	c, err := ParseNetlist(text)
	if err != nil {
		t.Fatal(err)
	}
	back, err := SerializeNetlist(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(back, "R1 in out 1k") {
		t.Fatalf("serialized:\n%s", back)
	}
}

func TestNewSessionFromNetlist(t *testing.T) {
	text := `netlist cut
V1 in 0 1
R1 in out 1k
C1 out 0 1u
`
	s, err := NewSessionFromNetlist(text, "V1", "out")
	if err != nil {
		t.Fatal(err)
	}
	// R1 and C1 are the faultable components.
	if got := len(s.CUT().Passives); got != 2 {
		t.Fatalf("passives = %d", got)
	}
	ev, err := s.Evaluate(context.Background(), []float64{300, 3000}, []float64{-0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy() < 0.5 {
		t.Fatalf("RC accuracy = %g", ev.Accuracy())
	}
	// Errors surface.
	if _, err := NewSessionFromNetlist("garbage", "V1", "out"); err == nil {
		t.Fatal("garbage netlist accepted")
	}
	if _, err := NewSessionFromNetlist(text, "V9", "out"); err == nil {
		t.Fatal("missing source accepted")
	}
	if _, err := NewSessionFromNetlist("t\nV1 a 0 1\nU1 a 0 b\nR1 b a 1\n", "V1", "b", WithComponents()); err == nil {
		t.Fatal("empty component list accepted")
	}
}
