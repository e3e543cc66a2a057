package core_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"testing"

	"ffis/internal/core"
	"ffis/internal/experiments"
	"ffis/internal/results"
	"ffis/internal/stats"
)

// oracleRuns is the run count of every oracle spec: enough for targets to
// repeat (record reuse) and for Worker pairs and recycled blocks to serve
// several runs, few enough that the reference, which builds every world
// from scratch, stays within seconds.
const oracleRuns = 8

// oracleSpecs is the grid TestEngineMatchesReference runs: every Figure 7
// cell on its flat world, and the Nyx and QMCPACK pipeline cells armed on
// their scratch tier of a tiered mem, object:lag=2 and latency world, each
// under every registered model at seeds 2021 and 7; plus MT2 under the
// Figure 7 models with an adaptive stop rule. Specs of one world share a
// world key, so they share a snapshot, profile counts and Worker pairs as
// a production grid's do.
func oracleSpecs(t *testing.T) []core.CampaignSpec {
	t.Helper()
	o := experiments.Options{NyxN: 24}
	var specs []core.CampaignSpec
	add := func(world string, w core.Workload, arm []string) {
		for _, m := range core.AllModels() {
			for _, seed := range []uint64{2021, 7} {
				specs = append(specs, core.CampaignSpec{
					Key:      fmt.Sprintf("%s/%s/%d", world, m.Short(), seed),
					WorldKey: world,
					Workload: w,
					Config:   core.CampaignConfig{Fault: core.Config{Model: m}, Runs: oracleRuns, Seed: seed, ArmMounts: arm},
				})
			}
		}
	}
	for _, cell := range experiments.Fig7Cells {
		w, err := experiments.NewWorkload(cell, o)
		if err != nil {
			t.Fatal(err)
		}
		add(cell, w, nil)
		if cell != "MT2" {
			continue
		}
		for _, m := range experiments.Fig7Models() {
			specs = append(specs, core.CampaignSpec{
				Key:      "MT2/stop/" + m.Short(),
				WorldKey: cell,
				Workload: w,
				Config: core.CampaignConfig{
					Fault: core.Config{Model: m}, Runs: 2 * oracleRuns, Seed: 2021,
					Stop: &stats.StopRule{TargetHalfWidth: 0.3, MinRuns: 4, CheckEvery: 4},
				},
			})
		}
	}
	for _, cell := range []string{"nyx", "qmcpack"} {
		w, err := experiments.NewPipelineWorkload(cell, o)
		if err != nil {
			t.Fatal(err)
		}
		layout, err := experiments.TierLayout(cell)
		if err != nil {
			t.Fatal(err)
		}
		arm := append([]string(nil), layout.Tiers[experiments.TierScratch]...)
		sort.Strings(arm)
		for _, backend := range []string{"mem", "object:lag=2", "latency"} {
			wb := w
			wb.NewFS = layout.FSFactory(backend)
			add(cell+".pipeline@"+backend, wb, arm)
		}
	}
	return specs
}

// recordLines renders records as canonical store lines.
func recordLines(t *testing.T, recs []core.RunRecord) []string {
	t.Helper()
	lines := make([]string, len(recs))
	for i, rec := range recs {
		b, err := json.Marshal(results.NewRecord(rec))
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(b)
	}
	return lines
}

// TestEngineMatchesReference is the oracle for every optimization of the
// campaign loop: COW snapshots, the record memo, Worker pairs shared per
// world key, per-slot scratch, recycled blocks and the reorder buffer.
// Engine.Run at jobs 1 and 8 must store, for every spec of oracleSpecs, the
// profile count and the record lines of the reference loop
// (referenceRecords), which rebuilds every world and runs the plain Run
// and Classify one run at a time. An adaptive spec stores the prefix
// [0, StopIndex) of the reference's MaxRuns records, and a spec whose
// armed scope the reference finds no target in (a read model on a cell
// that only writes) must fail with ErrNoTargets.
func TestEngineMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("the reference builds every world from scratch")
	}
	specs := oracleSpecs(t)
	want := make([]core.CampaignResult, len(specs))
	starved := make([]bool, len(specs))
	for i, spec := range specs {
		ref, err := core.ReferenceRecords(spec)
		switch {
		case errors.Is(err, core.ErrNoTargets):
			starved[i] = true
		case err != nil:
			t.Fatalf("%s: reference: %v", spec.Key, err)
		}
		want[i] = ref
	}
	for _, jobs := range []int{1, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			for i, g := range (&core.Engine{Jobs: jobs}).Run(specs) {
				key, ref := g.Spec.Key, want[i]
				if starved[i] {
					if !errors.Is(g.Err, core.ErrNoTargets) {
						t.Errorf("%s: the reference finds no targets, the engine reports %v", key, g.Err)
					}
					continue
				}
				if g.Err != nil {
					t.Fatalf("%s: %v", key, g.Err)
				}
				if g.Result.ProfileCount != ref.ProfileCount {
					t.Errorf("%s: profile count %d, reference %d", key, g.Result.ProfileCount, ref.ProfileCount)
					continue
				}
				refRecs := ref.Records
				if g.Spec.Config.Stop != nil {
					if stop := g.Result.StopIndex; stop <= 0 || stop > len(refRecs) {
						t.Errorf("%s: stop index %d outside the reference's %d runs", key, stop, len(refRecs))
						continue
					}
					refRecs = refRecs[:g.Result.StopIndex]
				}
				got, wantLines := recordLines(t, g.Result.Records), recordLines(t, refRecs)
				if len(got) != len(wantLines) {
					t.Errorf("%s: %d records, reference %d", key, len(got), len(wantLines))
					continue
				}
				for k := range got {
					if got[k] != wantLines[k] {
						t.Errorf("%s run %d: record differs from the reference\n  engine    %s\n  reference %s", key, k, got[k], wantLines[k])
						break
					}
				}
			}
		})
	}
}
