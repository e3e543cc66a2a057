// Package classify defines the outcome taxonomy of a fault-injection run and
// the tallying/rendering helpers campaigns use to report results.
//
// The taxonomy follows Section II of the paper: an application failure is a
// run whose outcome differs from the expected one. If the run terminates
// early it is a crash; if the corruption is caught by the application or its
// post-analysis it is detected; if it silently alters the result it is
// silent data corruption (SDC); and if the output is bit-identical to the
// golden run the fault was benign.
package classify

import (
	"fmt"
	"strings"

	"ffis/internal/stats"
)

// Outcome is the classification of a single fault-injection run.
type Outcome int

// The four outcome classes used throughout the paper's evaluation.
const (
	// Benign: output bit-wise identical to the fault-free (golden) run.
	Benign Outcome = iota
	// SDC: output differs from golden yet passes the application's own
	// plausibility checks — silent data corruption.
	SDC
	// Detected: the application or its post-analysis flagged the run as
	// wrong (error reported, implausible result, empty catalog, ...).
	Detected
	// Crash: the application terminated before finishing (I/O error,
	// library exception, panic, missing output file).
	Crash
)

// Outcomes lists all outcome values in presentation order.
func Outcomes() []Outcome { return []Outcome{Benign, SDC, Detected, Crash} }

func (o Outcome) String() string {
	switch o {
	case Benign:
		return "benign"
	case SDC:
		return "SDC"
	case Detected:
		return "detected"
	case Crash:
		return "crash"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// ParseOutcome inverts Outcome.String, case-insensitively: the decoder used
// when persisted run records are loaded back from disk.
func ParseOutcome(s string) (Outcome, error) {
	for _, o := range Outcomes() {
		if strings.EqualFold(s, o.String()) {
			return o, nil
		}
	}
	return 0, fmt.Errorf("classify: unknown outcome %q", s)
}

// Tally accumulates outcome counts for one campaign cell
// (one application × one fault model).
type Tally struct {
	counts [4]int
}

// Add records one run outcome.
func (t *Tally) Add(o Outcome) {
	if o < Benign || o > Crash {
		panic(fmt.Sprintf("classify: invalid outcome %d", int(o)))
	}
	t.counts[o]++
}

// Count returns the number of runs recorded with outcome o.
func (t *Tally) Count(o Outcome) int { return t.counts[o] }

// Total returns the number of runs recorded.
func (t *Tally) Total() int {
	n := 0
	for _, c := range t.counts {
		n += c
	}
	return n
}

// Rate returns the observed proportion of outcome o with its sample size,
// ready for confidence-interval math.
func (t *Tally) Rate(o Outcome) stats.Proportion {
	return stats.Proportion{Successes: t.counts[o], Trials: t.Total()}
}

// String renders the tally in the compact "benign 91.1% | SDC 0.8% | ..."
// form used by cmd/ffis.
func (t *Tally) String() string {
	if t.Total() == 0 {
		return "(no runs)"
	}
	parts := make([]string, 0, 4)
	for _, o := range Outcomes() {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", o, 100*t.Rate(o).P()))
	}
	return strings.Join(parts, " | ")
}

// Cell is a named tally, one row of a results table.
type Cell struct {
	Label string
	Tally Tally
}

// Table renders a set of campaign cells as an aligned text table with
// percentage columns for each outcome plus the 95% error bar on the SDC
// rate, mirroring how Figure 7 and Table III present results.
func Table(title string, cells []Cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-18s %8s %8s %8s %8s %8s %12s\n",
		"cell", "runs", "benign", "SDC", "detect", "crash", "SDC 95% CI")
	for _, c := range cells {
		tt := c.Tally
		sdcLo, sdcHi := tt.Rate(SDC).Wilson95()
		fmt.Fprintf(&b, "%-18s %8d %7.1f%% %7.1f%% %7.1f%% %7.1f%% [%4.1f,%4.1f]%%\n",
			c.Label, tt.Total(),
			100*tt.Rate(Benign).P(), 100*tt.Rate(SDC).P(),
			100*tt.Rate(Detected).P(), 100*tt.Rate(Crash).P(),
			100*sdcLo, 100*sdcHi)
	}
	return b.String()
}

// rateCI renders one outcome's cell in the "rate ±halfwidth" form the
// adaptive-stopping surfaces use: the observed percentage with the Wilson
// 95% half-width that the stopping rule itself evaluates, so a table read
// next to a StopRule target is in the rule's own units.
func rateCI(t Tally, o Outcome) string {
	p := t.Rate(o)
	return fmt.Sprintf("%.1f ±%.1f%%", 100*p.P(), 100*p.WilsonHalfWidth95())
}

// TableCI renders cells as an aligned text table with every outcome column
// in "rate ±halfwidth" form (Wilson 95%), plus the per-cell run count —
// which under adaptive stopping differs between cells, making the n column
// load-bearing rather than decorative.
func TableCI(title string, cells []Cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-18s %6s %13s %13s %13s %13s\n",
		"cell", "runs", "benign", "SDC", "detect", "crash")
	for _, c := range cells {
		tt := c.Tally
		fmt.Fprintf(&b, "%-18s %6d %13s %13s %13s %13s\n",
			c.Label, tt.Total(),
			rateCI(tt, Benign), rateCI(tt, SDC), rateCI(tt, Detected), rateCI(tt, Crash))
	}
	return b.String()
}

// CSVCI renders cells as comma-separated rows carrying, per outcome, the
// raw count plus the rate and Wilson 95% half-width as fractions — the
// machine-readable twin of TableCI.
func CSVCI(cells []Cell) string {
	var b strings.Builder
	b.WriteString("label,runs")
	for _, o := range Outcomes() {
		name := strings.ToLower(o.String())
		fmt.Fprintf(&b, ",%s,%s_rate,%s_hw95", name, name, name)
	}
	b.WriteString("\n")
	for _, c := range cells {
		tt := c.Tally
		fmt.Fprintf(&b, "%s,%d", QuoteCSV(c.Label), tt.Total())
		for _, o := range Outcomes() {
			p := tt.Rate(o)
			fmt.Fprintf(&b, ",%d,%.6f,%.6f", tt.Count(o), p.P(), p.WilsonHalfWidth95())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// MarkdownCI renders cells as a GitHub-flavored Markdown table with every
// outcome column in "rate ±halfwidth" form (Wilson 95%) and the per-cell
// run count.
func MarkdownCI(title string, cells []Cell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", title)
	b.WriteString("| cell | runs | benign | SDC | detected | crash |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|\n")
	for _, c := range cells {
		tt := c.Tally
		label := strings.ReplaceAll(c.Label, "|", `\|`)
		fmt.Fprintf(&b, "| %s | %d | %s | %s | %s | %s |\n",
			label, tt.Total(),
			rateCI(tt, Benign), rateCI(tt, SDC), rateCI(tt, Detected), rateCI(tt, Crash))
	}
	return b.String()
}

// QuoteCSV renders one field per RFC 4180: fields containing a comma, a
// double quote, or a line break are wrapped in double quotes with embedded
// quotes doubled; everything else passes through verbatim. Every CSV
// surface (CSV here, the results report generator) goes through it so a
// cell label like `nyx,tiered` or `MT"2"` can never desynchronize columns.
func QuoteCSV(field string) string {
	if !strings.ContainsAny(field, ",\"\n\r") {
		return field
	}
	return `"` + strings.ReplaceAll(field, `"`, `""`) + `"`
}

// CSV renders cells as machine-readable comma-separated rows
// (label,runs,benign,sdc,detected,crash), with RFC 4180 quoting on the
// label field.
func CSV(cells []Cell) string {
	var b strings.Builder
	b.WriteString("label,runs,benign,sdc,detected,crash\n")
	for _, c := range cells {
		tt := c.Tally
		fmt.Fprintf(&b, "%s,%d,%d,%d,%d,%d\n", QuoteCSV(c.Label), tt.Total(),
			tt.Count(Benign), tt.Count(SDC), tt.Count(Detected), tt.Count(Crash))
	}
	return b.String()
}
