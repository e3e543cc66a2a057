package classify

import (
	"strings"
	"testing"
)

func TestOutcomeStrings(t *testing.T) {
	want := map[Outcome]string{
		Benign:   "benign",
		SDC:      "SDC",
		Detected: "detected",
		Crash:    "crash",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(o), o.String(), s)
		}
	}
	if !strings.Contains(Outcome(9).String(), "outcome") {
		t.Error("unknown outcome should self-describe")
	}
}

func TestOutcomesOrder(t *testing.T) {
	os := Outcomes()
	if len(os) != 4 || os[0] != Benign || os[3] != Crash {
		t.Fatalf("Outcomes() = %v", os)
	}
}

func TestTallyAddAndRates(t *testing.T) {
	var tl Tally
	for i := 0; i < 857; i++ {
		tl.Add(Benign)
	}
	for i := 0; i < 2; i++ {
		tl.Add(SDC)
	}
	for i := 0; i < 141; i++ {
		tl.Add(Crash)
	}
	if tl.Total() != 1000 {
		t.Fatalf("total = %d", tl.Total())
	}
	if got := tl.Rate(Benign).P(); got != 0.857 {
		t.Fatalf("benign rate = %v", got)
	}
	if got := tl.Rate(SDC).P(); got != 0.002 {
		t.Fatalf("sdc rate = %v", got)
	}
	if tl.Count(Detected) != 0 {
		t.Fatalf("detected = %d", tl.Count(Detected))
	}
}

func TestTallyInvalidOutcomePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var tl Tally
	tl.Add(Outcome(17))
}

func TestTallyStringEmpty(t *testing.T) {
	var tl Tally
	if tl.String() != "(no runs)" {
		t.Fatalf("empty tally string = %q", tl.String())
	}
}

func TestTableRendering(t *testing.T) {
	var tl Tally
	tl.Add(Benign)
	tl.Add(SDC)
	out := Table("Figure 7", []Cell{{Label: "nyx/BF", Tally: tl}})
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "nyx/BF") {
		t.Fatalf("table output:\n%s", out)
	}
	if !strings.Contains(out, "50.0%") {
		t.Fatalf("missing rates:\n%s", out)
	}
}

func TestCSVRendering(t *testing.T) {
	var tl Tally
	tl.Add(Crash)
	out := CSV([]Cell{{Label: "qmc/DW", Tally: tl}})
	if !strings.HasPrefix(out, "label,runs,") {
		t.Fatalf("csv header: %q", out)
	}
	if !strings.Contains(out, "qmc/DW,1,0,0,0,1") {
		t.Fatalf("csv row missing: %q", out)
	}
}

func TestQuoteCSV(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain", "plain"},
		{"has,comma", `"has,comma"`},
		{`has"quote`, `"has""quote"`},
		{"has\nnewline", "\"has\nnewline\""},
		{`both,"of`, `"both,""of"`},
	}
	for _, c := range cases {
		if got := QuoteCSV(c.in); got != c.want {
			t.Errorf("QuoteCSV(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestCSVQuotesHostileLabels pins the RFC 4180 fix: a label containing a
// comma or quote must stay one field instead of shifting every count
// column.
func TestCSVQuotesHostileLabels(t *testing.T) {
	var tl Tally
	tl.Add(SDC)
	out := CSV([]Cell{{Label: `nyx,tiered "hot"`, Tally: tl}})
	want := `"nyx,tiered ""hot""",1,0,1,0,0`
	if !strings.Contains(out, want) {
		t.Fatalf("csv row %q missing quoted label row %q", out, want)
	}
	// Every data row must still parse to exactly 6 fields.
	rows := strings.Split(strings.TrimSpace(out), "\n")
	if len(rows) != 2 {
		t.Fatalf("rows: %q", rows)
	}
}

func TestParseOutcome(t *testing.T) {
	for _, o := range Outcomes() {
		got, err := ParseOutcome(o.String())
		if err != nil || got != o {
			t.Fatalf("ParseOutcome(%q) = %v, %v", o.String(), got, err)
		}
	}
	if got, err := ParseOutcome("sdc"); err != nil || got != SDC {
		t.Fatalf("case-insensitive parse failed: %v, %v", got, err)
	}
	if _, err := ParseOutcome("mystery"); err == nil {
		t.Fatal("unknown outcome must error")
	}
}
