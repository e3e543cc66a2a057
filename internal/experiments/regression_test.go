package experiments

import (
	"fmt"
	"sort"
	"testing"

	"ffis/internal/classify"
	"ffis/internal/core"
)

// runCampaign runs one campaign as a one-spec Engine grid on jobs slots
// (<= 0 selects GOMAXPROCS).
func runCampaign(jobs int, cfg core.CampaignConfig, w core.Workload) (core.CampaignResult, error) {
	grid := (&core.Engine{Jobs: jobs}).Run([]core.CampaignSpec{{Workload: w, Config: cfg}})
	return grid[0].Result, grid[0].Err
}

// The fault-model API redesign (closed FaultModel enum → Model interface +
// registry) must not change a single campaign outcome: the goldens below
// are the tallies the pre-redesign enum implementation produced for the six
// original models on the MT2 pipeline workload under pinned seeds, on both
// a flat and a tiered world, at workers 1 and 8. Dispatching through the
// Model interface preserves the claim order and every RNG draw, so each
// row must stay bit-identical. If a deliberate behavior change ever
// invalidates these, re-capture them with the harness below — never adjust
// a single row by hand.
var enumGoldenTallies = []string{
	"BF flat workers=1 targets=100 benign=32 sdc=6 detected=1 crash=1",
	"BF flat workers=8 targets=100 benign=32 sdc=6 detected=1 crash=1",
	"BF tiered workers=1 targets=100 benign=32 sdc=6 detected=1 crash=1",
	"BF tiered workers=8 targets=100 benign=32 sdc=6 detected=1 crash=1",
	"SW flat workers=1 targets=100 benign=18 sdc=20 detected=2 crash=0",
	"SW flat workers=8 targets=100 benign=18 sdc=20 detected=2 crash=0",
	"SW tiered workers=1 targets=100 benign=18 sdc=20 detected=2 crash=0",
	"SW tiered workers=8 targets=100 benign=18 sdc=20 detected=2 crash=0",
	"DW flat workers=1 targets=100 benign=0 sdc=20 detected=2 crash=18",
	"DW flat workers=8 targets=100 benign=0 sdc=20 detected=2 crash=18",
	"DW tiered workers=1 targets=100 benign=0 sdc=20 detected=2 crash=18",
	"DW tiered workers=8 targets=100 benign=0 sdc=20 detected=2 crash=18",
	"RB flat workers=1 targets=44 benign=28 sdc=3 detected=6 crash=3",
	"RB flat workers=8 targets=44 benign=28 sdc=3 detected=6 crash=3",
	"RB tiered workers=1 targets=44 benign=28 sdc=3 detected=6 crash=3",
	"RB tiered workers=8 targets=44 benign=28 sdc=3 detected=6 crash=3",
	"UR flat workers=1 targets=44 benign=0 sdc=0 detected=0 crash=40",
	"UR flat workers=8 targets=44 benign=0 sdc=0 detected=0 crash=40",
	"UR tiered workers=1 targets=44 benign=0 sdc=0 detected=0 crash=40",
	"UR tiered workers=8 targets=44 benign=0 sdc=0 detected=0 crash=40",
	"LC flat workers=1 targets=44 benign=28 sdc=2 detected=7 crash=3",
	"LC flat workers=8 targets=44 benign=28 sdc=2 detected=7 crash=3",
	"LC tiered workers=1 targets=44 benign=28 sdc=2 detected=7 crash=3",
	"LC tiered workers=8 targets=44 benign=28 sdc=2 detected=7 crash=3",
}

// TestEnumEquivalenceRegression replays the pre-redesign capture: the six
// original models, resolved purely through the registry, must reproduce
// the enum implementation's tallies bit for bit.
func TestEnumEquivalenceRegression(t *testing.T) {
	o := Options{Runs: 40, Seed: 20260729}
	// The original Table I vocabulary plus its PR-3 read extension, in the
	// capture's row order, resolved by name — no compile-time model refs.
	modelNames := []string{
		"bit-flip", "shorn-write", "dropped-write",
		"read-bit-flip", "unreadable-sector", "latent-corruption",
	}
	layout, err := TierLayout("MT2")
	if err != nil {
		t.Fatal(err)
	}
	scratch := append([]string(nil), layout.Tiers[TierScratch]...)
	sort.Strings(scratch)

	var rows []string
	for _, name := range modelNames {
		m, err := core.ParseModel(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, placement := range []string{"flat", "tiered"} {
			for _, workers := range []int{1, 8} {
				w, err := NewPipelineWorkload("MT2", o)
				if err != nil {
					t.Fatal(err)
				}
				cfg := core.CampaignConfig{
					Fault: core.Config{Model: m},
					Runs:  o.Runs,
					Seed:  o.Seed,
				}
				if placement == "tiered" {
					w.NewFS = layout.FSFactory("mem")
					cfg.ArmMounts = scratch
				}
				res, err := runCampaign(workers, cfg, w)
				if err != nil {
					t.Fatalf("%s/%s/w%d: %v", m.Short(), placement, workers, err)
				}
				rows = append(rows, fmt.Sprintf(
					"%s %s workers=%d targets=%d benign=%d sdc=%d detected=%d crash=%d",
					m.Short(), placement, workers, res.ProfileCount,
					res.Tally.Count(classify.Benign), res.Tally.Count(classify.SDC),
					res.Tally.Count(classify.Detected), res.Tally.Count(classify.Crash)))
			}
		}
	}
	if len(rows) != len(enumGoldenTallies) {
		t.Fatalf("produced %d rows, golden has %d", len(rows), len(enumGoldenTallies))
	}
	for i, row := range rows {
		if row != enumGoldenTallies[i] {
			t.Errorf("campaign diverged from the enum implementation:\n  got  %s\n  want %s", row, enumGoldenTallies[i])
		}
	}
}
