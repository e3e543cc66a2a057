package experiments

import (
	"strings"
	"testing"

	"ffis/internal/core"
)

// qmcpackGolden holds the records of QMCPACK campaigns. Regenerate only
// after an intentional record change:
//
//	UPDATE_GOLDEN=1 go test -run TestQMCPACKRecordsPinned ./internal/experiments/
const qmcpackGolden = "testdata/qmcpack_records.jsonl.golden"

// qmcpackSpecs are the pinned campaigns: the standard cell under the
// Figure 7 write models, the flat pipeline under every registered model,
// and the tiered pipeline on memory and object tiers under the rw_tiered
// models, armed on the scratch tier.
func qmcpackSpecs() []WireSpec {
	const runs, seed = 16, 2021
	var specs []WireSpec
	for _, m := range []string{"bit-flip", "shorn-write", "dropped-write"} {
		specs = append(specs, WireSpec{Key: "qmcpack/" + m, Cell: "qmcpack", Model: m, Runs: runs, Seed: seed})
	}
	for _, m := range core.AllModels() {
		specs = append(specs, WireSpec{
			Key: "qmcpack.pipeline/" + m.Name(), Cell: "qmcpack", Model: m.Name(), Runs: runs, Seed: seed, Pipeline: true,
		})
	}
	for _, backend := range []string{"mem", "object"} {
		for _, m := range []string{"read-bit-flip", "latent-corruption", "short-read", "dropped-write"} {
			specs = append(specs, WireSpec{
				Key: "qmcpack.tiered@" + backend + "/" + m, Cell: "qmcpack", Model: m, Runs: runs, Seed: seed,
				Pipeline: true, Tiered: true, Backend: backend, ArmMounts: []string{"/"},
			})
		}
	}
	return specs
}

// TestQMCPACKRecordsPinned pins the records of QMCPACK campaigns byte for
// byte, at jobs 1 and 8, against a golden written while QMCA still parsed
// every line of the DMC file on every run: analysing only the lines a
// fault changed may change how much is parsed, never an outcome.
func TestQMCPACKRecordsPinned(t *testing.T) {
	raw := checkGridGolden(t, qmcpackGolden, qmcpackSpecs())
	for _, outcome := range []string{"SDC", "detected", "crash"} {
		if !strings.Contains(raw, `"outcome":"`+outcome+`"`) {
			t.Errorf("no pinned run is %s; the golden proves less than it should", outcome)
		}
	}
}
