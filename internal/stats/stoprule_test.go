package stats

import (
	"testing"
)

func TestStopRuleNormalizeDefaults(t *testing.T) {
	r, err := StopRule{TargetHalfWidth: 0.02}.Normalize(1000)
	if err != nil {
		t.Fatal(err)
	}
	want := StopRule{MaxRuns: 1000, TargetHalfWidth: 0.02, MinRuns: 100, CheckEvery: 50}
	if r != want {
		t.Fatalf("normalized = %+v, want %+v", r, want)
	}
	// A tiny budget clamps MinRuns down to the budget itself.
	r, err = StopRule{TargetHalfWidth: 0.1}.Normalize(30)
	if err != nil {
		t.Fatal(err)
	}
	if r.MinRuns != 30 || r.MaxRuns != 30 {
		t.Fatalf("tiny budget: %+v", r)
	}
}

func TestStopRuleNormalizeRejects(t *testing.T) {
	cases := []struct {
		rule   StopRule
		budget int
	}{
		{StopRule{}, 1000},                                    // no target
		{StopRule{TargetHalfWidth: 1.5}, 1000},                // target >= 1
		{StopRule{TargetHalfWidth: 0.02, MaxRuns: 2000}, 100}, // cap above budget
		{StopRule{TargetHalfWidth: 0.02, MinRuns: -1}, 1000},
		{StopRule{TargetHalfWidth: 0.02}, 0}, // no budget at all
	}
	for i, c := range cases {
		if _, err := c.rule.Normalize(c.budget); err == nil {
			t.Errorf("case %d: %+v budget %d: want error", i, c.rule, c.budget)
		}
	}
}

func TestStopRuleBarriers(t *testing.T) {
	r, err := StopRule{TargetHalfWidth: 0.02, MinRuns: 100, CheckEvery: 50}.Normalize(1000)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for n := 0; n < r.MaxRuns; {
		n = r.NextBarrier(n)
		got = append(got, n)
		if len(got) > 100 {
			t.Fatal("barrier sequence does not reach MaxRuns")
		}
	}
	if got[0] != 100 || got[1] != 150 || got[len(got)-1] != 1000 {
		t.Fatalf("barriers = %v", got)
	}
	// A budget that is not a multiple of the spacing still ends exactly at
	// MaxRuns, never beyond.
	r, _ = StopRule{TargetHalfWidth: 0.05, MinRuns: 10, CheckEvery: 40}.Normalize(75)
	seq := []int{}
	for n := 0; n < r.MaxRuns; {
		n = r.NextBarrier(n)
		seq = append(seq, n)
	}
	if want := []int{10, 50, 75}; len(seq) != 3 || seq[0] != want[0] || seq[1] != want[1] || seq[2] != want[2] {
		t.Fatalf("barriers = %v, want %v", seq, want)
	}
	if r.NextBarrier(75) != 75 {
		t.Fatal("NextBarrier past MaxRuns must stay at MaxRuns")
	}
}

// simulateStop plays a Bernoulli outcome stream against the rule exactly the
// way the campaign runner does: evaluate the complete prefix tally at each
// barrier, stop at the first satisfied one or at MaxRuns.
func simulateStop(r StopRule, rng *RNG, p float64) int {
	var hits, n int
	for {
		b := r.NextBarrier(n)
		for ; n < b; n++ {
			if rng.Float64() < p {
				hits++
			}
		}
		if r.Satisfied([]int{hits, n - hits}, n) || b >= r.MaxRuns {
			return n
		}
	}
}

// TestStopRuleBounds is the satellite's guardrail: over seeded simulated
// cells the rule never halts before MinRuns or after MaxRuns, and every
// stopping point is one of the rule's barriers.
func TestStopRuleBounds(t *testing.T) {
	rule, err := StopRule{TargetHalfWidth: 0.04, MinRuns: 60, CheckEvery: 30}.Normalize(600)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(20260808)
	for _, p := range []float64{0.001, 0.01, 0.1, 0.5} {
		for trial := 0; trial < 200; trial++ {
			stop := simulateStop(rule, rng, p)
			if stop < rule.MinRuns {
				t.Fatalf("p=%v: stopped at %d, before MinRuns %d", p, stop, rule.MinRuns)
			}
			if stop > rule.MaxRuns {
				t.Fatalf("p=%v: stopped at %d, after MaxRuns %d", p, stop, rule.MaxRuns)
			}
			if stop != rule.MaxRuns && (stop-rule.MinRuns)%rule.CheckEvery != 0 {
				t.Fatalf("p=%v: stop %d is not a barrier", p, stop)
			}
		}
	}
	// Sanity: an easy cell (p=0.001 against a 4% target) stops at the first
	// barrier, a hard one (p=0.5) runs to the cap.
	if stop := simulateStop(rule, NewRNG(1), 0.001); stop != rule.MinRuns {
		t.Errorf("easy cell stopped at %d, want MinRuns %d", stop, rule.MinRuns)
	}
	if stop := simulateStop(rule, NewRNG(2), 0.5); stop != rule.MaxRuns {
		t.Errorf("hard cell stopped at %d, want MaxRuns %d", stop, rule.MaxRuns)
	}
}

// TestWilson95Coverage checks empirical coverage on seeded Bernoulli cells:
// the Wilson 95% interval must contain the true p in at least 93% of
// simulated campaigns, including the rare-event rates where the normal
// approximation falls apart. n=2000 sits on a good tooth of the coverage
// oscillation for the p=0.001 cell (exact coverage 94.7%; the paper's
// n=1000 is a bad tooth at 92.0% — Wilson coverage is not monotone in n).
func TestWilson95Coverage(t *testing.T) {
	const (
		n      = 2000
		cells  = 1500
		minCov = 0.93
	)
	rng := NewRNG(42)
	for _, p := range []float64{0.001, 0.01, 0.1, 0.5} {
		covered := 0
		for c := 0; c < cells; c++ {
			k := 0
			for i := 0; i < n; i++ {
				if rng.Float64() < p {
					k++
				}
			}
			lo, hi := (Proportion{Successes: k, Trials: n}).Wilson95()
			if lo <= p && p <= hi {
				covered++
			}
		}
		if cov := float64(covered) / cells; cov < minCov {
			t.Errorf("p=%v: Wilson95 coverage %.3f < %.2f", p, cov, minCov)
		}
	}
}

func TestProportionStringRendersWilson(t *testing.T) {
	// The all-benign cell: the normal bar would read "0.0% ±0.0%", claiming
	// impossible certainty; the Wilson rendering keeps a visible upper edge.
	s := Proportion{Successes: 0, Trials: 1000}.String()
	if s != "0.0% [0.0%, 0.4%]" {
		t.Fatalf("String() = %q", s)
	}
	if got := (Proportion{Successes: 500, Trials: 1000}).String(); got != "50.0% [46.9%, 53.1%]" {
		t.Fatalf("String() = %q", got)
	}
}

func TestWilsonHalfWidthShrinks(t *testing.T) {
	a := Proportion{Successes: 10, Trials: 100}.WilsonHalfWidth95()
	b := Proportion{Successes: 100, Trials: 1000}.WilsonHalfWidth95()
	if b >= a {
		t.Fatalf("half-width should shrink with n: %v -> %v", a, b)
	}
	if (Proportion{}).WilsonHalfWidth95() != 1 {
		t.Fatal("empty proportion should report maximal half-width")
	}
}
