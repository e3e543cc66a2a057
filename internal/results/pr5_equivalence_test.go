package results

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ffis/internal/core"
	"ffis/internal/experiments"
)

// The PR 5 store format is pinned byte for byte: with adaptive stopping
// disabled, a campaign grid must produce record files identical to the ones
// the pre-adaptive, single-shot-injector era wrote. The goldens below were
// captured on the tree before Signature.Shots, CampaignConfig.Stop, and the
// correlated model family existed, so any drift here means the multi-shot
// or adaptive machinery leaked into the legacy path — a serialization field
// that no longer omits its zero value, a claim-order change, an extra RNG
// draw. Regenerate only after an intentional format change:
//
//	UPDATE_GOLDEN=1 go test -run TestLegacyStoreBytesPinned ./internal/results/
const (
	pr5Runs = 20
	pr5Seed = 20260808
)

// pr5Models is the legacy vocabulary the goldens cover: the Table I write
// trio plus the PR 3 read family.
var pr5Models = []string{
	"bit-flip", "shorn-write", "dropped-write",
	"read-bit-flip", "unreadable-sector", "latent-corruption",
}

func pr5Grid(t *testing.T, st *Store, workers int) {
	t.Helper()
	o := experiments.Options{Runs: pr5Runs, Seed: pr5Seed}
	var specs []core.CampaignSpec
	for _, name := range pr5Models {
		w, err := experiments.NewPipelineWorkload("MT2", o)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, core.CampaignSpec{
			Key:      "MT2/" + core.MustModel(name).Short(),
			WorldKey: "MT2",
			Workload: w,
			Config: core.CampaignConfig{
				Fault: core.Config{Model: core.MustModel(name)},
				Runs:  pr5Runs,
				Seed:  pr5Seed,
			},
		})
	}
	e := &core.Engine{Jobs: workers}
	grid, err := RunGrid(e, st, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range grid {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Spec.Key, r.Err)
		}
	}
}

func TestLegacyStoreBytesPinned(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, Manifest{Seed: pr5Seed, Runs: pr5Runs})
	if err != nil {
		t.Fatal(err)
	}
	pr5Grid(t, st, 4)

	update := os.Getenv("UPDATE_GOLDEN") != ""
	for _, name := range pr5Models {
		short := core.MustModel(name).Short()
		key := "MT2/" + short
		got, err := os.ReadFile(st.finalPath(key))
		if err != nil {
			t.Fatal(err)
		}
		golden := filepath.Join("testdata", "pr5_mt2_"+short+".jsonl.golden")
		if update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("spec %s: record file drifted from the PR 5 byte format (%d vs %d bytes)",
				key, len(got), len(want))
		}
	}
}
