package results

import (
	"fmt"
	"sort"
	"strings"

	"ffis/internal/classify"
	"ffis/internal/core"
)

// ReportFormats lists the renderings Report understands, in the order the
// CLI help advertises them.
var ReportFormats = []string{"text", "csv", "json", "markdown"}

// Report re-renders a store's persisted results into the paper's Figure 7 /
// Table III presentation without re-running anything: the whole point of
// durable records is that the tables can be regenerated — in a different
// format, after a crash, on another machine — from disk alone. Cells are
// labelled by spec key and appear in manifest (submission) order; format is
// one of ReportFormats ("md" is accepted for "markdown"). Specs with no
// stored records (starved placements, cells a crash caught before their
// first run) are called out in the text and markdown footers rather than
// silently dropped.
func Report(st *Store, format string) (string, error) {
	data, skipped, err := st.Load()
	if err != nil {
		return "", err
	}
	cells := make([]classify.Cell, 0, len(data))
	results := make([]core.CampaignResult, 0, len(data))
	for _, d := range data {
		res, err := d.CampaignResult()
		if err != nil {
			return "", err
		}
		cells = append(cells, classify.Cell{Label: d.Key, Tally: res.Tally})
		// The JSON rows carry the spec key as the workload label, matching
		// the cell labels of every other format (the bare workload name is
		// ambiguous once a grid runs one application under many models and
		// placements).
		res.Workload = d.Key
		results = append(results, res)
	}
	man := st.Manifest()
	title := fmt.Sprintf("Stored campaign results (%d specs, %d runs per cell, seed %d)",
		len(cells), man.Runs, man.Seed)

	var b strings.Builder
	switch strings.ToLower(format) {
	case "", "text":
		b.WriteString(classify.TableCI(title, cells))
		simFooter(&b, "", results)
		reportFooter(&b, "", skipped)
	case "csv":
		b.WriteString(classify.CSVCI(cells))
	case "json":
		if err := core.WriteResultsJSON(&b, results); err != nil {
			return "", err
		}
	case "markdown", "md":
		b.WriteString(classify.MarkdownCI(title, cells))
		simFooter(&b, "> ", results)
		reportFooter(&b, "> ", skipped)
	default:
		return "", fmt.Errorf("results: unknown report format %q (want %s)",
			format, strings.Join(ReportFormats, ", "))
	}
	return b.String(), nil
}

// simFooter appends per-spec simulated I/O times to human-readable formats
// when any spec ran on a latency-modeled world. Unmodeled stores (the
// default) emit nothing, keeping legacy report goldens byte-identical.
func simFooter(b *strings.Builder, prefix string, results []core.CampaignResult) {
	var lines []string
	for _, r := range results {
		if r.SimNanos > 0 {
			lines = append(lines, fmt.Sprintf("%s %.3fms", r.Workload,
				float64(r.SimNanos)/1e6))
		}
	}
	if len(lines) == 0 {
		return
	}
	fmt.Fprintf(b, "%ssimulated I/O time: %s\n", prefix, strings.Join(lines, ", "))
}

// reportFooter appends the missing-spec note to human-readable formats.
func reportFooter(b *strings.Builder, prefix string, skipped []string) {
	if len(skipped) == 0 {
		return
	}
	sorted := append([]string(nil), skipped...)
	sort.Strings(sorted)
	fmt.Fprintf(b, "%s(%d specs with no stored records: %s)\n",
		prefix, len(sorted), strings.Join(sorted, ", "))
}
