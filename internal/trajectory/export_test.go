package trajectory

import (
	"math"
	"testing"

	"repro/internal/dictionary"
	"repro/internal/fault"
	"repro/internal/geometry"
	"repro/internal/numeric"
)

func TestBuildFromExportMatchesLive(t *testing.T) {
	// A map rebuilt from a dense exported grid must closely match the
	// live (simulator-backed) map at grid-interior frequencies.
	d := paperDict(t)
	grid := numeric.Logspace(0.01, 100, 81)
	snap, err := d.Snapshot(grid)
	if err != nil {
		t.Fatal(err)
	}
	omegas := []float64{0.5, 2}
	live, err := Build(nil, d, omegas)
	if err != nil {
		t.Fatal(err)
	}
	fromExport, err := BuildFromExport(snap, omegas)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromExport.Trajectories) != len(live.Trajectories) {
		t.Fatalf("trajectories: %d vs %d", len(fromExport.Trajectories), len(live.Trajectories))
	}
	scale := live.Extent()
	for _, lt := range live.Trajectories {
		et, err := fromExport.ByComponent(lt.Component)
		if err != nil {
			t.Fatal(err)
		}
		if len(et.Points) != len(lt.Points) {
			t.Fatalf("%s: %d vs %d points", lt.Component, len(et.Points), len(lt.Points))
		}
		for i := range lt.Points {
			if d := geometry.DistN(lt.Points[i], et.Points[i]); d > 0.02*scale {
				t.Fatalf("%s point %d differs by %g (scale %g)", lt.Component, i, d, scale)
			}
		}
	}
}

func TestBuildFromExportDiagnosisStillWorks(t *testing.T) {
	// End-to-end deployment flow: snapshot → rebuild map → diagnose a
	// signature computed live. Interpolation error must not flip the
	// verdict.
	d := paperDict(t)
	grid := numeric.Logspace(0.01, 100, 81)
	snap, err := d.Snapshot(grid)
	if err != nil {
		t.Fatal(err)
	}
	omegas := []float64{0.5, 2}
	m, err := BuildFromExport(snap, omegas)
	if err != nil {
		t.Fatal(err)
	}
	// Nearest-trajectory search inline (avoiding an import cycle with
	// the diagnosis package).
	sig, err := d.Signature(fault.Fault{Component: "R3", Deviation: 0.25}, omegas)
	if err != nil {
		t.Fatal(err)
	}
	best, bestDist := "", math.Inf(1)
	for _, tr := range m.Trajectories {
		if dist := tr.Points.DistToN(geometry.VecN(sig)); dist < bestDist {
			best, bestDist = tr.Component, dist
		}
	}
	if best != "R3" {
		t.Fatalf("export-based diagnosis = %s, want R3", best)
	}
}

func TestBuildFromExportValidation(t *testing.T) {
	d := paperDict(t)
	grid := numeric.Logspace(0.1, 10, 9)
	snap, err := d.Snapshot(grid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildFromExport(nil, []float64{1}); err == nil {
		t.Fatal("nil export accepted")
	}
	if _, err := BuildFromExport(snap, nil); err == nil {
		t.Fatal("empty test vector accepted")
	}
	if _, err := BuildFromExport(snap, []float64{0.001}); err == nil {
		t.Fatal("out-of-grid frequency accepted")
	}
	if _, err := BuildFromExport(snap, []float64{500}); err == nil {
		t.Fatal("out-of-grid frequency accepted")
	}
	// Corrupted grids.
	bad := *snap
	bad.Omegas = []float64{1}
	if _, err := BuildFromExport(&bad, []float64{1}); err == nil {
		t.Fatal("single-point grid accepted")
	}
	bad2 := *snap
	bad2.Omegas = append([]float64(nil), snap.Omegas...)
	bad2.Omegas[1] = bad2.Omegas[0]
	if _, err := BuildFromExport(&bad2, []float64{1}); err == nil {
		t.Fatal("non-ascending grid accepted")
	}
	// Missing golden entry.
	noGolden := *snap
	noGolden.Entries = snap.Entries[1:]
	if _, err := BuildFromExport(&noGolden, []float64{1}); err == nil {
		t.Fatal("export without golden accepted")
	}
	// Malformed fault ID.
	badID := *snap
	badID.Entries = append([]dictionary.Entry(nil), snap.Entries...)
	badID.Entries[1].ID = "garbage"
	if _, err := BuildFromExport(&badID, []float64{1}); err == nil {
		t.Fatal("malformed fault id accepted")
	}
}

// TestExportGridPointExact: at exact grid frequencies the interpolation
// must reproduce the stored values bit-for-bit.
func TestExportGridPointExact(t *testing.T) {
	d := paperDict(t)
	grid := numeric.Logspace(0.1, 10, 9)
	snap, err := d.Snapshot(grid)
	if err != nil {
		t.Fatal(err)
	}
	got := interpAt(snap.Omegas, snap.Entries[0].Mags, grid[3])
	if got != snap.Entries[0].Mags[3] {
		t.Fatalf("grid-point value %g vs stored %g", got, snap.Entries[0].Mags[3])
	}
}
