package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"ffis/internal/classify"
)

// Sweep runs the same workload under a series of fault configurations,
// keyed by label and run in label order, as one Engine grid on GOMAXPROCS
// slots. Every field of base except Fault is honored per point — in
// particular ArmMounts, so a sweep over a tiered world keeps its fault
// placement. All points share the workload's world: one Setup and one
// profiling pass per target primitive serve the sweep.
func Sweep(points map[string]Config, base CampaignConfig, w Workload) ([]CampaignResult, error) {
	labels := slices.Sorted(maps.Keys(points))
	specs := make([]CampaignSpec, len(labels))
	for i, label := range labels {
		cfg := base
		cfg.Fault = points[label]
		specs[i] = CampaignSpec{Key: w.Name + "/" + label, Workload: w, Config: cfg}
	}
	out := make([]CampaignResult, len(labels))
	for i, r := range (&Engine{}).Run(specs) {
		if r.Err != nil {
			return nil, fmt.Errorf("core: sweep point %q: %w", labels[i], r.Err)
		}
		out[i] = r.Result
		out[i].Workload = r.Spec.Key
	}
	return out, nil
}

func TestSweepRunsAllPoints(t *testing.T) {
	pts := map[string]Config{}
	for _, bits := range []int{1, 2, 4, 8} {
		pts[fmt.Sprintf("flip%d", bits)] = Config{Model: BitFlip, Feature: Feature{FlipBits: bits}}
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	results, err := Sweep(pts, CampaignConfig{Runs: 8, Seed: 7}, toyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Tally.Total() != 8 {
			t.Fatalf("point %d total = %d", i, r.Tally.Total())
		}
		if !strings.HasPrefix(r.Workload, "toy/flip") {
			t.Fatalf("label = %q", r.Workload)
		}
		// Every flip in the toy workload corrupts live data.
		if r.Tally.Count(classify.SDC) != 8 {
			t.Fatalf("point %d tally: %s", i, r.Tally.String())
		}
	}
}

func TestShornFractionSweepMonotonicity(t *testing.T) {
	// Keeping less of each block can only lose more data; on the toy
	// workload (uniform pattern, stale remnant equals fresh data) all
	// fractions are benign — the point is that the sweep runs and labels
	// correctly.
	pts := map[string]Config{}
	for _, keep := range []int{1, 3, 5, 7} {
		pts[fmt.Sprintf("keep%dof8", keep)] = Config{Model: ShornWrite, Feature: Feature{ShornKeepNum: keep, ShornKeepDen: 8}}
	}
	results, err := Sweep(pts, CampaignConfig{Runs: 6, Seed: 3}, toyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Tally.Total() != 6 {
			t.Fatalf("total = %d", r.Tally.Total())
		}
	}
	if !strings.Contains(results[0].Workload, "keep1of8") {
		t.Fatalf("label = %q", results[0].Workload)
	}
}

func TestWriteResultsJSON(t *testing.T) {
	res, err := runCampaign(0, CampaignConfig{
		Fault: Config{Model: BitFlip},
		Runs:  5,
		Seed:  1,
	}, toyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResultsJSON(&buf, []CampaignResult{res}); err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rows); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0]["fault_model"] != "bit-flip" {
		t.Fatalf("model = %v", rows[0]["fault_model"])
	}
	outcomes, ok := rows[0]["outcomes"].(map[string]any)
	if !ok || outcomes["SDC"].(float64) != 5 {
		t.Fatalf("outcomes = %v", rows[0]["outcomes"])
	}
	if rows[0]["sdc_rate"].(float64) != 1.0 {
		t.Fatalf("sdc_rate = %v", rows[0]["sdc_rate"])
	}
}
