package core

import (
	"encoding/json"
	"io"

	"ffis/internal/classify"
)

// resultJSON is the export form of a campaign result.
type resultJSON struct {
	Workload     string         `json:"workload"`
	Model        string         `json:"fault_model"`
	Primitive    string         `json:"primitive"`
	Runs         int            `json:"runs"`
	ProfileCount int64          `json:"profile_count"`
	Outcomes     map[string]int `json:"outcomes"`
	// Rates carries, per outcome, the observed rate with its Wilson 95%
	// half-width — the quantity an adaptive stopping rule bounds, so the
	// export is directly comparable against a StopRule target.
	Rates       map[string]rateJSON `json:"rates"`
	SDCRate     float64             `json:"sdc_rate"`
	SDCErrBar95 float64             `json:"sdc_err_bar_95"`
	// StopIndex is where the adaptive rule stopped the campaign; omitted
	// for fixed-budget runs.
	StopIndex int `json:"stop_index,omitempty"`
	// SimNanos is the total simulated I/O time over all runs; omitted for
	// worlds with no latency-modeled backend.
	SimNanos int64 `json:"sim_ns,omitempty"`
}

// rateJSON is one outcome's interval summary in the JSON export.
type rateJSON struct {
	Count       int     `json:"count"`
	Rate        float64 `json:"rate"`
	HalfWidth95 float64 `json:"half_width_95"`
}

func toJSON(r CampaignResult) resultJSON {
	out := resultJSON{
		Workload:     r.Workload,
		Model:        r.Signature.Model.Name(),
		Primitive:    string(r.Signature.Model.Host()),
		Runs:         r.Tally.Total(),
		ProfileCount: r.ProfileCount,
		Outcomes:     map[string]int{},
		Rates:        map[string]rateJSON{},
		SDCRate:      r.Tally.Rate(classify.SDC).P(),
		SDCErrBar95:  r.Tally.Rate(classify.SDC).ErrorBar95(),
		StopIndex:    r.StopIndex,
		SimNanos:     r.SimNanos,
	}
	for _, o := range classify.Outcomes() {
		p := r.Tally.Rate(o)
		out.Outcomes[o.String()] = r.Tally.Count(o)
		out.Rates[o.String()] = rateJSON{
			Count:       p.Successes,
			Rate:        p.P(),
			HalfWidth95: p.WilsonHalfWidth95(),
		}
	}
	return out
}

// WriteResultsJSON serializes campaign results as an indented JSON array,
// the machine-readable artifact the experiment harness archives alongside
// the text tables.
func WriteResultsJSON(w io.Writer, results []CampaignResult) error {
	rows := make([]resultJSON, len(results))
	for i, r := range results {
		rows[i] = toJSON(r)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}
