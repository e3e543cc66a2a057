package experiments

import (
	"strings"
	"testing"

	"ffis/internal/classify"
	"ffis/internal/core"
)

// TestReadWriteGridSmall runs the full read-vs-write grid at reduced scale:
// every cell must complete for all six models on both the flat and the
// tiered world, and read-model cells must actually reach the read path
// (non-benign outcomes exist).
func TestReadWriteGridSmall(t *testing.T) {
	o := smallOpts()
	o.Runs = 4
	out, cells, err := ReadWriteGrid(o)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(ReadWriteCells) * 2 * len(core.AllModels())
	if len(cells) != wantCells {
		t.Fatalf("grid produced %d cells, want %d", len(cells), wantCells)
	}
	byLabel := map[string]classify.Tally{}
	for _, c := range cells {
		if c.Tally.Total() != o.Runs {
			t.Errorf("%s: tally total %d, want %d", c.Label, c.Tally.Total(), o.Runs)
		}
		byLabel[c.Label] = c.Tally
	}
	for _, cell := range ReadWriteCells {
		for _, placement := range []string{"flat", "tiered"} {
			for _, model := range core.AllModels() {
				label := cell + "." + placement + "/" + model.Short()
				if _, ok := byLabel[label]; !ok {
					t.Errorf("missing grid cell %s", label)
				}
				if !strings.Contains(out, label) {
					t.Errorf("rendered table missing %s", label)
				}
			}
		}
	}
	// Unreadable sectors kill the consumer: every UR cell must show
	// non-benign outcomes.
	for label, tally := range byLabel {
		if strings.HasSuffix(label, "/UR") && tally.Count(classify.Benign) == tally.Total() {
			t.Errorf("%s: unreadable-sector campaign tallied all benign", label)
		}
	}
}

// TestReadWriteGridDeterministic asserts the grid is independent of the
// engine pool width, the read-path analogue of the Fig7 determinism
// contract.
func TestReadWriteGridDeterministic(t *testing.T) {
	o := smallOpts()
	o.Runs = 3
	run := func(jobs int) []classify.Cell {
		o := o
		o.Engine = &core.Engine{Jobs: jobs}
		_, cells, err := ReadWriteGrid(o)
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	one, eight := run(1), run(8)
	if len(one) != len(eight) {
		t.Fatalf("cell counts differ: %d vs %d", len(one), len(eight))
	}
	for i := range one {
		if one[i].Label != eight[i].Label || one[i].Tally != eight[i].Tally {
			t.Fatalf("cell %s diverged across -jobs 1 vs 8: %s vs %s",
				one[i].Label, one[i].Tally.String(), eight[i].Tally.String())
		}
	}
}

// TestPipelineWorkloadsHaveReadTraffic pins the precondition of the whole
// grid: each pipeline cell's instrumented phase issues reads, so read-model
// signatures have targets.
func TestPipelineWorkloadsHaveReadTraffic(t *testing.T) {
	o := smallOpts()
	for _, cell := range ReadWriteCells {
		w, err := NewPipelineWorkload(cell, o)
		if err != nil {
			t.Fatal(err)
		}
		count, err := (&core.Engine{}).Profile(core.CampaignSpec{Workload: w, Config: core.CampaignConfig{Fault: core.Config{Model: core.ReadBitFlip}}})
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		if count == 0 {
			t.Errorf("%s: pipeline workload performs no reads", cell)
		}
	}
}
