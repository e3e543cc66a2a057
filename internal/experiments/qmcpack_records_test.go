package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
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

// qmcpackLines runs the pinned campaigns on an engine of the given width
// and returns their store lines, each spec's records after a line naming
// its key.
func qmcpackLines(t *testing.T, jobs int) []string {
	t.Helper()
	grid, err := Options{Engine: &core.Engine{Jobs: jobs}}.runGrid(qmcpackSpecs())
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, g := range grid {
		head, err := json.Marshal(struct {
			Key string `json:"key"`
		}{g.Spec.Key})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(head))
		lines = append(lines, recordLines(t, g)...)
	}
	return lines
}

// TestQMCPACKRecordsPinned pins the records of QMCPACK campaigns byte for
// byte, at jobs 1 and 8, against a golden written while QMCA still parsed
// every line of the DMC file on every run: analysing only the lines a
// fault changed may change how much is parsed, never an outcome.
func TestQMCPACKRecordsPinned(t *testing.T) {
	if os.Getenv("UPDATE_GOLDEN") != "" {
		lines := qmcpackLines(t, 1)
		if err := os.MkdirAll(filepath.Dir(qmcpackGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(qmcpackGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(qmcpackGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for _, jobs := range []int{1, 8} {
		got := qmcpackLines(t, jobs)
		if len(got) != len(want) {
			t.Fatalf("jobs %d: %d lines, golden has %d", jobs, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("jobs %d line %d differs from the golden\n  golden %s\n  got    %s", jobs, i+1, want[i], got[i])
			}
		}
	}
	for _, outcome := range []string{"SDC", "detected", "crash"} {
		if !strings.Contains(string(raw), `"outcome":"`+outcome+`"`) {
			t.Errorf("no pinned run is %s; the golden proves less than it should", outcome)
		}
	}
}
