package stats

import "fmt"

// StopRule is a sequential stopping rule for statistical fault-injection
// campaigns: keep running until every outcome class's 95% interval is tight
// enough, then stop spending runs. The paper fixes 1,000 runs per cell to
// reach its "1%~2% error bars at 95% confidence"; a rule with
// TargetHalfWidth in that range reproduces the paper's precision while
// letting low-variance cells (all-benign Nyx shorn writes, say) stop after
// MinRuns instead of burning the full budget.
//
// Determinism contract: the rule is evaluated only at fixed index barriers
// (MinRuns, MinRuns+CheckEvery, ...), and each evaluation sees the complete
// outcome tally of the run-index prefix [0, barrier). Because run outcomes
// derive purely from (seed, index), the stopping index is a function of the
// campaign parameters alone — independent of worker count, pool scheduling,
// and completion order — so resumed and re-executed campaigns agree on
// exactly which runs exist.
//
// A record file's header stores the normalized rule under these JSON tags,
// in this order.
type StopRule struct {
	// TargetHalfWidth is the Wilson 95% half-width every outcome class must
	// reach before the rule stops the campaign. Required (> 0).
	TargetHalfWidth float64 `json:"target_half_width"`
	// MinRuns is the first barrier: no decision is made before this many
	// runs. 0 selects min(100, MaxRuns) — below ~100 runs the intervals are
	// dominated by the prior, not the data.
	MinRuns int `json:"min_runs"`
	// MaxRuns caps the campaign; 0 means "the campaign's fixed budget".
	MaxRuns int `json:"max_runs"`
	// CheckEvery is the barrier spacing after MinRuns. 0 selects 50.
	CheckEvery int `json:"check_every"`
}

// Default barrier parameters, chosen so a paper-scale 1,000-run budget is
// probed at 100, 150, 200, ... — cheap relative to run cost, fine-grained
// relative to how fast Wilson half-widths shrink (~1/sqrt(n)).
const (
	defaultMinRuns    = 100
	defaultCheckEvery = 50
)

// Normalize validates the rule and fills defaults against the campaign's
// fixed run budget. The returned rule has every field concrete, which is
// the form persisted in record headers so resumed campaigns re-evaluate
// identical barriers.
func (r StopRule) Normalize(budget int) (StopRule, error) {
	if r.TargetHalfWidth <= 0 || r.TargetHalfWidth >= 1 {
		return StopRule{}, fmt.Errorf("stats: stop rule needs 0 < TargetHalfWidth < 1, got %v", r.TargetHalfWidth)
	}
	if r.MaxRuns <= 0 {
		r.MaxRuns = budget
	}
	if r.MaxRuns <= 0 || r.MaxRuns > budget {
		return StopRule{}, fmt.Errorf("stats: stop rule MaxRuns %d outside campaign budget %d", r.MaxRuns, budget)
	}
	if r.MinRuns < 0 || r.CheckEvery < 0 {
		return StopRule{}, fmt.Errorf("stats: stop rule has negative MinRuns or CheckEvery")
	}
	if r.MinRuns == 0 {
		r.MinRuns = defaultMinRuns
	}
	if r.MinRuns > r.MaxRuns {
		r.MinRuns = r.MaxRuns
	}
	if r.CheckEvery == 0 {
		r.CheckEvery = defaultCheckEvery
	}
	return r, nil
}

// NextBarrier returns the first decision barrier strictly greater than n:
// MinRuns, then MinRuns+CheckEvery, ..., capped at MaxRuns. Once n has
// reached MaxRuns there are no further barriers and MaxRuns is returned.
// The rule must be normalized.
func (r StopRule) NextBarrier(n int) int {
	if n < r.MinRuns {
		return r.MinRuns
	}
	if n >= r.MaxRuns {
		return r.MaxRuns
	}
	// First multiple of CheckEvery past n, anchored at MinRuns.
	steps := (n-r.MinRuns)/r.CheckEvery + 1
	b := r.MinRuns + steps*r.CheckEvery
	if b > r.MaxRuns {
		b = r.MaxRuns
	}
	return b
}

// Satisfied reports whether a complete prefix tally meets the rule: trials
// have reached MinRuns and every outcome class's Wilson 95% half-width is at
// or under TargetHalfWidth. counts holds the per-class successes; trials is
// their total (the prefix length). The rule must be normalized.
func (r StopRule) Satisfied(counts []int, trials int) bool {
	if trials < r.MinRuns {
		return false
	}
	for _, c := range counts {
		p := Proportion{Successes: c, Trials: trials}
		if p.WilsonHalfWidth95() > r.TargetHalfWidth {
			return false
		}
	}
	return true
}

// String renders the rule for logs and report titles.
func (r StopRule) String() string {
	return fmt.Sprintf("hw<=%.3g min=%d max=%d every=%d",
		r.TargetHalfWidth, r.MinRuns, r.MaxRuns, r.CheckEvery)
}
