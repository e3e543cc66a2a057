package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestQuartilesMatchExclusiveMethod(t *testing.T) {
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, med, q3 := quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || med != 4 || q3 != 12 {
		t.Fatalf("quartiles = %v %v %v, want 1.5 4 12", q1, med, q3)
	}
}

func TestIntervalRule(t *testing.T) {
	lower := metricDef{name: "wall_s", unit: "s", better: "lower", bound: 0.10}
	higher := metricDef{name: "runs_per_s", unit: "1/s", better: "higher", bound: 0.10}
	base := summary{Median: 10, Q1: 9, Q3: 11}
	for _, tc := range []struct {
		name  string
		d     metricDef
		fresh summary
		want  bool
	}{
		{"lower overlapping", lower, summary{Median: 11.5, Q1: 10.5, Q3: 12.5}, false},
		{"lower disjoint within bound", lower, summary{Median: 12, Q1: 12, Q3: 12.5}, false},
		{"lower disjoint worse", lower, summary{Median: 13, Q1: 12.2, Q3: 14}, true},
		{"lower disjoint better", lower, summary{Median: 5, Q1: 4, Q3: 6}, false},
		{"higher overlapping", higher, summary{Median: 9, Q1: 8, Q3: 9.5}, false},
		{"higher disjoint within bound", higher, summary{Median: 8.3, Q1: 8.2, Q3: 8.5}, false},
		{"higher disjoint worse", higher, summary{Median: 7, Q1: 6, Q3: 8}, true},
		{"higher disjoint better", higher, summary{Median: 20, Q1: 19, Q3: 21}, false},
	} {
		if got := regressed(tc.d, base, tc.fresh); got != tc.want {
			t.Errorf("%s: regressed = %v, want %v", tc.name, got, tc.want)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q does not match %s", d.name, d.unit, unitRE)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q invalid or reused", w.name)
		}
		seen[w.name] = true
	}
}

// benchmarkJSON is the layout of BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesCode pins BENCHMARK.json to the definitions the
// program emits: same workloads, same metrics with the same units,
// directions and bounds, and the same run length as the -seconds default.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, code has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q / %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, code emits %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := b.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, code %+v", i, got, d)
		}
	}
	layers := perLayer()
	if len(b.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, code emits %d", len(b.PerLayer), len(layers))
	}
	for i, d := range layers {
		got := b.PerLayer[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, code %+v", i, got, d)
		}
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, but -seconds defaults to %d", b.RunSeconds, runSeconds)
	}
}

// TestEveryMetricEmitted checks that an untraced run yields every
// end-to-end metric, and that the tracer plus the ladder cover every
// per-layer metric.
func TestEveryMetricEmitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	w, _ := lookupWorkload("rw_tiered")
	values, reps, err := runUntraced(w, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify(w.name, 7, reps); err != nil {
		t.Fatal(err)
	}
	for _, d := range endToEnd {
		if v, ok := values[d.name]; !ok || v <= 0 {
			t.Errorf("end-to-end metric %s = %v (present %v), want > 0", d.name, v, ok)
		}
	}
	traced := newTracer().metrics()
	traced["core.trace_overhead_pct"] = 0
	for _, r := range ladder {
		traced[r.name] = 0
	}
	for _, d := range perLayer() {
		if _, ok := traced[d.name]; !ok {
			t.Errorf("per-layer metric %s is never emitted", d.name)
		}
		delete(traced, d.name)
	}
	for name := range traced {
		t.Errorf("emitted metric %s is not declared", name)
	}
}

func TestVerifyRejectsPerturbedTally(t *testing.T) {
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	want, ok := g["fig7_grid"]
	if !ok || len(want) == 0 {
		t.Fatal("no fig7_grid goldens")
	}
	good := repResult{runs: 1, tallies: want}
	if err := verify("fig7_grid", goldenSeed, []repResult{good, good}); err != nil {
		t.Fatalf("golden tallies rejected: %v", err)
	}
	perturbed := tallies{}
	for k, v := range want {
		perturbed[k] = v
	}
	for k, v := range perturbed {
		v[0], v[1] = v[0]-1, v[1]+1
		perturbed[k] = v
		break
	}
	bad := repResult{runs: 1, tallies: perturbed}
	if err := verify("fig7_grid", goldenSeed, []repResult{bad}); err == nil {
		t.Error("perturbed tally accepted against the goldens")
	}
	if err := verify("fig7_grid", 7, []repResult{good, bad}); err == nil {
		t.Error("reps with different tallies accepted")
	}
	if err := verify("fig7_grid", 7, []repResult{good, {runs: 2, tallies: want}}); err == nil {
		t.Error("reps with different run counts accepted")
	}
}

// TestTallyGoldens runs one rep of every workload at the golden seed and
// compares its tallies with testdata/tallies.json. UPDATE_GOLDEN=1
// rewrites the file instead.
func TestTallyGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	got := goldens{}
	for _, w := range workloads {
		c, err := w.setup(goldenSeed)
		if err != nil {
			t.Fatalf("%s set-up: %v", w.name, err)
		}
		r, err := c.rep(nil)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		got[w.name] = r.tallies
	}
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		if err := os.WriteFile("testdata/tallies.json", formatGoldens(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if err := compareTallies(want[w.name], got[w.name]); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// formatGoldens renders goldens as JSON with one spec per line.
func formatGoldens(g goldens) []byte {
	var workloads []string
	for _, name := range sortedKeys(g) {
		var specs []string
		for _, k := range sortedKeys(g[name]) {
			c := g[name][k]
			specs = append(specs, fmt.Sprintf("    %q: [%d, %d, %d, %d]", k, c[0], c[1], c[2], c[3]))
		}
		workloads = append(workloads, fmt.Sprintf("  %q: {\n%s\n  }", name, strings.Join(specs, ",\n")))
	}
	return []byte("{\n" + strings.Join(workloads, ",\n") + "\n}\n")
}

// TestTracedRepMatchesUntraced checks that tracing observes a rep without
// changing its results, and that a traced rep drops no events.
func TestTracedRepMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	for _, name := range []string{"rw_tiered", "distributed_grid"} {
		w, _ := lookupWorkload(name)
		c, err := w.setup(11)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := c.rep(nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		traced, err := c.rep(tr)
		if err != nil {
			t.Fatal(err)
		}
		tr.addWall(traced.wall)
		if err := verify(name, 11, []repResult{plain, traced}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		m := tr.metrics()
		if m["core.events_dropped"] != 0 {
			t.Errorf("%s: %v events dropped", name, m["core.events_dropped"])
		}
		if m["apps.run_us.p50"] <= 0 {
			t.Errorf("%s: no run timings traced", name)
		}
		if name == "distributed_grid" && (m["campaignd.records_us.p50"] <= 0 || m["campaignd.records_per_post"] <= 0) {
			t.Errorf("%s: no coordinator traffic traced: %v", name, m)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if p := percentile(xs, 0.5); p != 50 {
		t.Errorf("p50 = %v, want 50", p)
	}
	if p := percentile(xs, 0.99); p != 99 {
		t.Errorf("p99 = %v, want 99", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("p50 of nothing = %v, want 0", p)
	}
}
