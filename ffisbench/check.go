package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// goldenSeed is the seed whose per-spec tallies are pinned in
// testdata/tallies.json; it is also the default -seed.
const goldenSeed = 2021

// baselinePath is where -write-baseline stores, and -check reads, the
// committed performance baseline (relative to the repository root).
const baselinePath = "ffisbench/baseline.json"

//go:embed testdata/tallies.json
var goldenJSON []byte

// goldens is the layout of testdata/tallies.json: per workload, per spec
// key, the outcome counts [benign, SDC, detected, crash] of one rep at
// goldenSeed.
type goldens map[string]tallies

func loadGoldens() (goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/tallies.json: %w", err)
	}
	return g, nil
}

// verify checks a run's reps: every rep (traced or not) produced the same
// per-spec tallies and ran the same number of runs, and at goldenSeed those
// tallies equal the pinned goldens.
func verify(workload string, seed uint64, reps []repResult) error {
	if len(reps) == 0 {
		return errors.New("no reps ran")
	}
	for i, r := range reps[1:] {
		if r.runs != reps[0].runs {
			return fmt.Errorf("rep %d ran %d runs, rep 0 ran %d", i+1, r.runs, reps[0].runs)
		}
		if err := compareTallies(reps[0].tallies, r.tallies); err != nil {
			return fmt.Errorf("rep %d differs from rep 0: %w", i+1, err)
		}
	}
	if seed != goldenSeed {
		return nil
	}
	g, err := loadGoldens()
	if err != nil {
		return err
	}
	want, ok := g[workload]
	if !ok {
		return fmt.Errorf("no pinned tallies for %s", workload)
	}
	if err := compareTallies(want, reps[0].tallies); err != nil {
		return fmt.Errorf("tallies differ from testdata/tallies.json: %w", err)
	}
	return nil
}

// compareTallies reports the first spec whose counts differ.
func compareTallies(want, got tallies) error {
	for _, k := range sortedKeys(want) {
		g, ok := got[k]
		if !ok {
			return fmt.Errorf("missing spec %s", k)
		}
		if g != want[k] {
			return fmt.Errorf("spec %s: got %v, want %v", k, g, want[k])
		}
	}
	for _, k := range sortedKeys(got) {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("unexpected spec %s", k)
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method (Python's statistics.quantiles(xs, n=4)); a single
// value is all three.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// summary is one metric's distribution over the runs of a gate.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Unit   string  `json:"unit"`
}

// baseline is the layout of baseline.json.
type baseline struct {
	Seed      uint64                        `json:"seed"`
	Seconds   int                           `json:"seconds"`
	Reps      int                           `json:"reps"`
	Go        string                        `json:"go"`
	CPUs      int                           `json:"cpus"`
	Date      string                        `json:"date"`
	Workloads map[string]map[string]summary `json:"workloads"`
}

// regressed applies the interval rule: a metric regresses only when the
// fresh quartile range lies entirely on the worse side of the baseline's
// range, by more than the metric's bound.
func regressed(d metricDef, base, fresh summary) bool {
	if d.better == "higher" {
		return fresh.Q3 < base.Q1*(1-d.bound)
	}
	return fresh.Q1 > base.Q3*(1+d.bound)
}

// gateReps is how many runs of each workload -check and -write-baseline
// take.
const gateReps = 5

// gate runs gateReps interleaved rounds of every workload (w1..w4, w1..w4,
// ...), each run in its own process, and writes the baseline, checks
// against it, or both.
func gate(check, write bool, seed uint64, seconds int) error {
	var base baseline
	if check {
		raw, err := os.ReadFile(baselinePath)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &base); err != nil {
			return fmt.Errorf("%s: %w", baselinePath, err)
		}
		// Both sides measure identical settings.
		seed, seconds = base.Seed, base.Seconds
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string]map[string][]float64{}
	for i := 0; i < gateReps; i++ {
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "round %d/%d %s\n", i+1, gateReps, w.name)
			res, err := child(self, w.name, seed, seconds)
			if err != nil {
				return fmt.Errorf("%s round %d: %w", w.name, i+1, err)
			}
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for _, d := range endToEnd {
				m, ok := res.Metrics[d.name]
				if !ok {
					return fmt.Errorf("%s round %d: metric %s missing", w.name, i+1, d.name)
				}
				values[w.name][d.name] = append(values[w.name][d.name], m.Value)
			}
		}
	}
	fresh := map[string]map[string]summary{}
	for _, w := range workloads {
		fresh[w.name] = map[string]summary{}
		for _, d := range endToEnd {
			q1, med, q3 := quartiles(values[w.name][d.name])
			fresh[w.name][d.name] = summary{Median: med, Q1: q1, Q3: q3, Unit: d.unit}
		}
	}
	var bad []string
	if check {
		for _, w := range workloads {
			for _, d := range endToEnd {
				b, ok := base.Workloads[w.name][d.name]
				f := fresh[w.name][d.name]
				verdict := "ok"
				switch {
				case !ok:
					verdict = "no baseline"
				case regressed(d, b, f):
					verdict = "REGRESSED"
					bad = append(bad, w.name+":"+d.name)
				}
				fmt.Printf("%-17s %-14s fresh %s  baseline %s  bound %3.0f%%  %s\n",
					w.name, d.name, f, b, d.bound*100, verdict)
			}
		}
	}
	if write {
		out := baseline{
			Seed: seed, Seconds: seconds, Reps: gateReps,
			Go: runtime.Version(), CPUs: runtime.NumCPU(),
			Date:      time.Now().UTC().Format(time.RFC3339),
			Workloads: fresh,
		}
		enc, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(baselinePath, append(enc, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", baselinePath)
	}
	if len(bad) > 0 {
		return fmt.Errorf("regressed beyond bound: %s", strings.Join(bad, ", "))
	}
	return nil
}

func (s summary) String() string {
	return fmt.Sprintf("%10.4g [%10.4g, %10.4g]", s.Median, s.Q1, s.Q3)
}

// child runs one untraced workload run in a subprocess and parses its
// result line.
func child(self, workload string, seed uint64, seconds int) (result, error) {
	cmd := exec.Command(self, "-workload", workload,
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return result{}, errors.New("run reported incorrect results")
	}
	return res, nil
}
