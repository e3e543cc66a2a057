package results

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"ffis/internal/core"
	"ffis/internal/experiments"
	"ffis/internal/stats"
)

const (
	adaptiveKey    = "MT2/BF"
	adaptiveBudget = 60
	adaptiveSeed   = 11
)

// adaptiveSpec builds the MT2 bit-flip cell under a stopping rule generous
// enough that it must halt before the budget (the Wilson half-width at the
// n=50 barrier is below 0.2 for every possible rate), keeping the early-stop
// assertions deterministic without pinning the exact stop barrier.
func adaptiveSpec(t *testing.T) core.CampaignSpec {
	t.Helper()
	w, err := experiments.NewPipelineWorkload("MT2", experiments.Options{
		Runs: adaptiveBudget, Seed: adaptiveSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return core.CampaignSpec{
		Key:      adaptiveKey,
		WorldKey: "MT2",
		Workload: w,
		Config: core.CampaignConfig{
			Fault: core.Config{Model: core.MustModel("bit-flip")},
			Runs:  adaptiveBudget,
			Seed:  adaptiveSeed,
			Stop:  &stats.StopRule{TargetHalfWidth: 0.2, MinRuns: 20, CheckEvery: 10},
		},
	}
}

func runAdaptiveCell(t *testing.T, st *Store) core.GridResult {
	t.Helper()
	grid, err := RunGrid(&core.Engine{Jobs: 4}, st, []core.CampaignSpec{adaptiveSpec(t)})
	if err != nil {
		t.Fatal(err)
	}
	if grid[0].Err != nil {
		t.Fatal(grid[0].Err)
	}
	return grid[0]
}

// TestAdaptiveStoreResume is the durability half of the adaptive-stopping
// determinism contract: an adaptive campaign killed mid-stream and resumed
// must reach the same stop index as the uninterrupted run and finalize a
// byte-identical record file, with the stop decision persisted in the
// header where a later process (or a report) can read it back.
func TestAdaptiveStoreResume(t *testing.T) {
	// Uninterrupted reference run.
	refStore, err := Create(t.TempDir(), Manifest{Seed: adaptiveSeed, Runs: adaptiveBudget})
	if err != nil {
		t.Fatal(err)
	}
	ref := runAdaptiveCell(t, refStore)
	stop := ref.Result.StopIndex
	if stop < 20 || stop > 50 {
		t.Fatalf("stop index %d outside the rule's possible range [20, 50]", stop)
	}
	refBytes, err := os.ReadFile(refStore.finalPath(adaptiveKey))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(refBytes), `"stop_index":`) {
		t.Fatal("finalized header does not carry the stop index")
	}

	// The persisted header must restore the full campaign identity: rule,
	// stop index, and exactly StopIndex records.
	data, ok, err := refStore.LoadSpec(adaptiveKey)
	if err != nil || !ok {
		t.Fatalf("LoadSpec: ok=%v err=%v", ok, err)
	}
	if data.Header.StopIndex != stop {
		t.Fatalf("header stop index %d, campaign reported %d", data.Header.StopIndex, stop)
	}
	if data.Header.StopRule == nil || data.Header.StopRule.TargetHalfWidth != 0.2 {
		t.Fatalf("header stop rule %+v, want the campaign's normalized rule", data.Header.StopRule)
	}
	if len(data.Records) != stop {
		t.Fatalf("%d records persisted for stop index %d", len(data.Records), stop)
	}
	res, err := data.CampaignResult()
	if err != nil {
		t.Fatal(err)
	}
	if res.StopIndex != stop {
		t.Fatalf("reconstructed result stop index %d, want %d", res.StopIndex, stop)
	}

	// Interrupted store: header (as the crash left it — no stop index yet)
	// plus a short record prefix and a torn tail.
	dir := t.TempDir()
	st, err := Create(dir, Manifest{Seed: adaptiveSeed, Runs: adaptiveBudget})
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(refBytes, []byte("\n"))
	var h Header
	if err := json.Unmarshal(lines[0], &h); err != nil {
		t.Fatal(err)
	}
	h.StopIndex = 0 // finalize wrote it; the mid-flight partial never has it
	headerLine, err := marshalLine(h)
	if err != nil {
		t.Fatal(err)
	}
	partial := append(headerLine, bytes.Join(lines[1:11], nil)...) // 10 records
	partial = append(partial, []byte(`{"index":10,"target":9,"outc`)...)
	if err := os.WriteFile(st.partialPath(adaptiveKey), partial, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := runAdaptiveCell(t, resumed)
	if got.Result.StopIndex != stop {
		t.Fatalf("resumed stop index %d, uninterrupted run stopped at %d", got.Result.StopIndex, stop)
	}
	gotBytes, err := os.ReadFile(resumed.finalPath(adaptiveKey))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, refBytes) {
		t.Fatalf("resumed adaptive record file differs from the uninterrupted run (%d vs %d bytes)",
			len(gotBytes), len(refBytes))
	}

	// Re-running the grid over the finalized store must take the load-only
	// fast path — which exercises HeaderMatches on an adaptive header —
	// and reproduce the stop index and tally from disk alone.
	again := runAdaptiveCell(t, resumed)
	if again.Result.StopIndex != stop || again.Result.Tally != ref.Result.Tally {
		t.Fatalf("finalized reload drifted: stop %d tally %v, want stop %d tally %v",
			again.Result.StopIndex, again.Result.Tally, stop, ref.Result.Tally)
	}
}
