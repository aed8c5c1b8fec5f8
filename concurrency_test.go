package repro_test

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"repro"
)

// TestDiagnoserConcurrentReadOnlyUse hammers one Session + Diagnoser from
// many goroutines, mixing every shared-read entry point the serving layer
// uses: point responses, bulk signatures (DiagnoseFaults), per-fault
// diagnosis, and map reads. Run under -race (the CI race job does) it
// pins the documented contract that Session.Dictionary() and a built
// Diagnoser are safe for concurrent read-only use; without -race it
// still verifies that concurrent results are bit-identical to
// sequential ones.
func TestDiagnoserConcurrentReadOnlyUse(t *testing.T) {
	ctx := context.Background()
	s, err := repro.NewSession(repro.PaperCUT(), repro.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	omegas := []float64{0.56, 4.55}
	dg, err := s.Diagnoser(ctx, omegas)
	if err != nil {
		t.Fatal(err)
	}

	comps := s.CUT().Passives
	faults := make([]repro.Fault, 0, len(comps))
	for i, c := range comps {
		dev := 0.17
		if i%2 == 1 {
			dev = -0.23
		}
		faults = append(faults, repro.Fault{Component: c, Deviation: dev})
	}

	// Sequential reference, computed before the hammer starts.
	wantBulk, err := s.DiagnoseFaults(ctx, dg, faults)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := make([]string, len(wantBulk))
	for i, r := range wantBulk {
		data, _ := json.Marshal(r)
		wantJSON[i] = string(data)
	}
	wantResp, err := s.Dictionary().Response(faults[0], omegas[0])
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 16
	const rounds = 3
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				switch g % 4 {
				case 0: // bulk batched diagnosis (the micro-batcher path)
					got, err := s.DiagnoseFaults(ctx, dg, faults)
					if err != nil {
						errs[g] = err
						return
					}
					for i, r := range got {
						data, _ := json.Marshal(r)
						if string(data) != wantJSON[i] {
							t.Errorf("goroutine %d: bulk result %d drifted under concurrency", g, i)
							return
						}
					}
				case 1: // per-fault diagnosis through Signature's one-set solve
					f := faults[(g+round)%len(faults)]
					res, err := dg.DiagnoseSet(s.Dictionary(), f)
					if err != nil {
						errs[g] = err
						return
					}
					if res.Best().Component != f.Component {
						t.Errorf("goroutine %d: %s misdiagnosed as %s", g, f.Component, res.Best().Component)
						return
					}
				case 2: // point responses (each looks up the grids under the dictionary's mutex)
					got, err := s.Dictionary().Response(faults[0], omegas[0])
					if err != nil {
						errs[g] = err
						return
					}
					if got != wantResp {
						t.Errorf("goroutine %d: point response drifted: %g != %g", g, got, wantResp)
						return
					}
				case 3: // map reads the HTTP layer performs per request
					if dg.Extent() <= 0 || dg.Map().Dim() != len(omegas) {
						t.Errorf("goroutine %d: map reads inconsistent", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}
