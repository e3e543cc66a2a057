package experiments

import (
	"fmt"
	"strings"
	"testing"

	"ffis/internal/core"
)

// nyxGolden holds the records of Nyx campaigns. Regenerate only after an
// intentional record change:
//
//	UPDATE_GOLDEN=1 go test -run TestNyxRecordsPinned ./internal/experiments/
const nyxGolden = "testdata/nyx_records.jsonl.golden"

// nyxSpecs are the pinned campaigns: the standard cell under every
// registered model at two seeds, write models also with the average-value
// detector (read models run the pipeline, which has none), and the tiered
// pipeline on memory, object and latency tiers under the rw_tiered models,
// armed on the plotfile tier.
func nyxSpecs() []WireSpec {
	const runs, n = 32, 24
	var specs []WireSpec
	for _, seed := range []uint64{2021, 77} {
		for _, m := range core.AllModels() {
			key := fmt.Sprintf("nyx@%d/%s", seed, m.Short())
			specs = append(specs, WireSpec{Key: key, Cell: "nyx", Model: m.Name(), Runs: runs, Seed: seed, NyxN: n})
			if !core.IsRead(m) {
				specs = append(specs, WireSpec{
					Key: key + "+avg", Cell: "nyx", Model: m.Name(), Runs: runs, Seed: seed, NyxN: n, AvgDetector: true,
				})
			}
		}
	}
	for _, backend := range []string{"mem", "object", "latency"} {
		for _, m := range []string{"read-bit-flip", "latent-corruption", "short-read", "dropped-write"} {
			specs = append(specs, WireSpec{
				Key: "nyx.tiered@" + backend + "/" + m, Cell: "nyx", Model: m, Runs: runs, Seed: 2021, NyxN: n,
				Pipeline: true, Tiered: true, Backend: backend, ArmMounts: []string{"/plt00000"},
			})
		}
	}
	return specs
}

// TestNyxRecordsPinned pins the records of Nyx campaigns byte for byte, at
// jobs 1 and 8, against a golden written while every run encoded the HDF5
// image anew and the halo finder decoded and summed every cell of it:
// writing a prebuilt image and analysing only what a fault changed may
// change how much work a run does, never a record.
func TestNyxRecordsPinned(t *testing.T) {
	raw := checkGridGolden(t, nyxGolden, nyxSpecs())
	for _, outcome := range []string{"benign", "SDC", "detected", "crash"} {
		if !strings.Contains(raw, `"outcome":"`+outcome+`"`) {
			t.Errorf("no pinned run is %s; the golden proves less than it should", outcome)
		}
	}
}
