package experiments

import (
	"testing"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/stats"
)

// TestAdaptiveMT2SavesRuns is the PR's acceptance criterion at the
// experiments layer: an adaptive MT2 campaign with the paper's "1%~2% error
// bar" target (half-width 0.02) must spend measurably fewer runs than the
// fixed 1,000-run baseline, and every fixed-budget point estimate must fall
// inside the adaptive run's reported Wilson intervals — the early stop
// trades budget for width, never for correctness. The cell is MT2 under
// unreadable-sector, whose near-deterministic crash spectrum converges at
// the first barrier; the balanced write-model cells legitimately run to the
// cap at this target (their variance needs >1,000 runs for ±2%), which is
// the rule behaving honestly, not a failure.
func TestAdaptiveMT2SavesRuns(t *testing.T) {
	ws := WireSpec{Cell: "MT2", Model: "unreadable-sector", Runs: 1000, Seed: 2021}
	adaptive, err := Fig7Cell(ws, Options{
		Engine: &core.Engine{Jobs: 8},
		Stop:   &stats.StopRule{TargetHalfWidth: 0.02},
	})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := Fig7Cell(ws, Options{Engine: &core.Engine{Jobs: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if fixed.StopIndex != 0 || fixed.Tally.Total() != 1000 {
		t.Fatalf("fixed baseline: stop=%d total=%d, want a full 1000-run fixed budget",
			fixed.StopIndex, fixed.Tally.Total())
	}
	spent := adaptive.Tally.Total()
	if adaptive.StopIndex == 0 || spent != adaptive.StopIndex {
		t.Fatalf("adaptive campaign: stop=%d but %d runs tallied", adaptive.StopIndex, spent)
	}
	if spent*2 > 1000 {
		t.Fatalf("adaptive campaign spent %d of 1000 runs — not a measurable saving", spent)
	}
	for _, o := range classify.Outcomes() {
		lo, hi := adaptive.Tally.Rate(o).Wilson95()
		p := fixed.Tally.Rate(o).P()
		// The interval bounds carry float rounding (Wilson's k=0 lower bound
		// computes to ~1e-17, not exactly 0); containment is up to epsilon.
		if p < lo-1e-12 || p > hi+1e-12 {
			t.Errorf("%s: fixed-budget estimate %.4f outside adaptive interval [%.4f, %.4f]",
				o, p, lo, hi)
		}
	}
}

// TestAdaptiveMT2WorkerIndependence is the experiments half of the
// determinism satellite: through the full engine stack (world snapshots,
// shared pool, barrier dispatch) an adaptive MT2 campaign must stop at the
// same index with identical tallies whether the pool is 1 or 8 wide.
func TestAdaptiveMT2WorkerIndependence(t *testing.T) {
	run := func(jobs int) core.CampaignResult {
		t.Helper()
		ws := WireSpec{Cell: "MT2", Model: "unreadable-sector", Runs: 400, Seed: 7}
		res, err := Fig7Cell(ws, Options{
			Engine: &core.Engine{Jobs: jobs},
			Stop:   &stats.StopRule{TargetHalfWidth: 0.05},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, wide := run(1), run(8)
	if serial.StopIndex != wide.StopIndex {
		t.Fatalf("stop index depends on pool width: %d (jobs=1) vs %d (jobs=8)",
			serial.StopIndex, wide.StopIndex)
	}
	if serial.Tally != wide.Tally {
		t.Fatalf("tallies depend on pool width:\n  jobs=1: %v\n  jobs=8: %v",
			serial.Tally, wide.Tally)
	}
	if serial.StopIndex == 0 || serial.StopIndex >= 400 {
		t.Fatalf("stop index %d: expected an early adaptive stop under the 400-run budget", serial.StopIndex)
	}
}
