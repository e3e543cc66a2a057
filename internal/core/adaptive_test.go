package core

import (
	"strings"
	"testing"

	"ffis/internal/classify"
	"ffis/internal/stats"
)

// adaptiveToyCampaign runs the toy workload under bit-flip with the given
// rule and worker count.
func adaptiveToyCampaign(t *testing.T, rule *stats.StopRule, workers int) CampaignResult {
	t.Helper()
	res, err := runCampaign(workers, CampaignConfig{
		Fault: Config{Model: BitFlip},
		Runs:  400,
		Seed:  42,
		Stop:  rule,
	}, toyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAdaptiveStopsIndependentOfWorkers is the core half of the determinism
// satellite: the stopping index and the tallies must be a function of
// (seed, rule) alone, never of pool width or scheduling.
func TestAdaptiveStopsIndependentOfWorkers(t *testing.T) {
	rule := &stats.StopRule{TargetHalfWidth: 0.08, MinRuns: 50, CheckEvery: 25}
	serial := adaptiveToyCampaign(t, rule, 1)
	parallel := adaptiveToyCampaign(t, rule, 8)
	if serial.StopIndex != parallel.StopIndex {
		t.Fatalf("stop index differs by worker count: %d vs %d", serial.StopIndex, parallel.StopIndex)
	}
	if serial.Tally != parallel.Tally {
		t.Fatalf("tallies differ by worker count:\n  %v\n  %v", serial.Tally, parallel.Tally)
	}
	// The toy cell is (nearly) deterministic in outcome, so it must stop at
	// the first barrier — spending measurably less than the 400-run budget.
	if serial.StopIndex != 50 {
		t.Fatalf("stop index = %d, want the first barrier (50)", serial.StopIndex)
	}
	if got := len(serial.Records); got != serial.StopIndex {
		t.Fatalf("%d records for stop index %d", got, serial.StopIndex)
	}
}

// TestAdaptiveCapsAtBudget: a rule no cell can satisfy runs the full budget
// and reports StopIndex == Runs — distinguishable from the fixed-budget 0.
func TestAdaptiveCapsAtBudget(t *testing.T) {
	rule := &stats.StopRule{TargetHalfWidth: 0.001, MinRuns: 50, CheckEvery: 100}
	res := adaptiveToyCampaign(t, rule, 4)
	if res.StopIndex != 400 {
		t.Fatalf("stop index = %d, want the 400-run cap", res.StopIndex)
	}
	if res.Tally.Total() != 400 {
		t.Fatalf("tally covers %d runs, want 400", res.Tally.Total())
	}
}

// TestAdaptivePrefixMatchesFixedBudget: the adaptive campaign's records are
// bit-identical to the same index prefix of the fixed-budget campaign — the
// rule only decides where the sequence ends, never what is in it.
func TestAdaptivePrefixMatchesFixedBudget(t *testing.T) {
	fixed, err := runCampaign(4, CampaignConfig{
		Fault: Config{Model: BitFlip}, Runs: 400, Seed: 42,
	}, toyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	adaptive := adaptiveToyCampaign(t, &stats.StopRule{TargetHalfWidth: 0.08, MinRuns: 50, CheckEvery: 25}, 4)
	if fixed.StopIndex != 0 {
		t.Fatalf("fixed-budget campaign reports stop index %d, want 0", fixed.StopIndex)
	}
	for i, rec := range adaptive.Records {
		want := fixed.Records[i]
		if rec.Index != want.Index || rec.Target != want.Target || rec.Outcome != want.Outcome {
			t.Fatalf("record %d differs between adaptive and fixed: %+v vs %+v", i, rec, want)
		}
	}
}

// TestAdaptiveResumeFromPersistedPrefix: resuming past already-persisted
// runs while the sink reports their outcomes must reach the same stopping
// decision as the uninterrupted campaign.
func TestAdaptiveResumeFromPersistedPrefix(t *testing.T) {
	rule := &stats.StopRule{TargetHalfWidth: 0.08, MinRuns: 50, CheckEvery: 25}
	full := adaptiveToyCampaign(t, rule, 4)
	const persisted = 30 // "crash" left the first 30 runs on disk
	sink := &resumeSink{start: persisted}
	for _, rec := range full.Records[:persisted] {
		sink.prior = append(sink.prior, rec.Outcome)
	}
	res, err := runCampaign(4, CampaignConfig{
		Fault: Config{Model: BitFlip}, Runs: 400, Seed: 42,
		Stop: rule,
		Sink: sink,
	}, toyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if res.StopIndex != full.StopIndex {
		t.Fatalf("resumed stop index %d, want %d", res.StopIndex, full.StopIndex)
	}
	if got := res.Tally.Total() + persisted; got != full.Tally.Total() {
		t.Fatalf("resumed executed %d runs + %d persisted, want %d total",
			res.Tally.Total(), persisted, full.Tally.Total())
	}
}

// TestAdaptiveRequiresPriorForFilteredRuns: an adaptive campaign whose sink
// resumes past runs it cannot report the outcomes of cannot evaluate
// complete prefixes, and must refuse before any run executes.
func TestAdaptiveRequiresPriorForFilteredRuns(t *testing.T) {
	for _, prior := range [][]classify.Outcome{nil, make([]classify.Outcome, 29)} {
		sink := &resumeSink{start: 30, prior: prior}
		_, err := runCampaign(2, CampaignConfig{
			Fault: Config{Model: BitFlip}, Runs: 100, Seed: 1,
			Stop: &stats.StopRule{TargetHalfWidth: 0.1},
			Sink: sink,
		}, toyWorkload())
		if err == nil || !strings.Contains(err.Error(), "persisted outcomes") {
			t.Fatalf("%d prior outcomes for resume point 30: err = %v, want the adaptive refusal", len(prior), err)
		}
		if sink.began != 0 {
			t.Fatal("refused campaign began its sink")
		}
	}
}

// TestAdaptiveRejectsBadRule: rule validation surfaces before any run
// executes.
func TestAdaptiveRejectsBadRule(t *testing.T) {
	_, err := runCampaign(0, CampaignConfig{
		Fault: Config{Model: BitFlip}, Runs: 100, Seed: 1,
		Stop: &stats.StopRule{}, // no target half-width
	}, toyWorkload())
	if err == nil {
		t.Fatal("campaign accepted a stopping rule without a target half-width")
	}
}
