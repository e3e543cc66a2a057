// Command ffisbench is the repository benchmark. It drives the fault-
// injection harness through its public packages on one named workload,
// measures what a campaign costs end to end, checks that the campaign's
// results are right, and prints one JSON result line as the last line of
// standard output.
//
// Load is a closed loop of two run slots in this one process. Each
// invocation first sets the workload up (builds its applications and warms
// the engine's world snapshots and profile counts with a 1-run pass per
// spec, three times over, reporting the median), then repeats complete
// campaigns ("reps") of a fixed size until -seconds have passed, reporting
// medians over reps. With -trace 1 it instead alternates untraced and
// traced reps, reports per-layer distributions from the traced ones, and
// runs the layer ladder.
//
// Run it from the repository root through run.sh, which builds it first:
//
//	bash ffisbench/run.sh --workload fig7_grid --seed 2021 --seconds 15 --trace 0
//	bash ffisbench/run.sh --workload distributed_grid --trace 1
//	bash ffisbench/run.sh --check            # gate against baseline.json
//	bash ffisbench/run.sh --write-baseline   # regenerate baseline.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// runSeconds is the default length of the timed phase, the run_seconds of
// BENCHMARK.json.
const runSeconds = 15

// setupReps is how many times a run sets its workload up; setup_s is the
// median.
const setupReps = 3

// metricDef describes one reported metric. bound is the share of the
// baseline by which an end-to-end metric may worsen before it counts as a
// regression; per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd are the metrics of an untraced run. The timing bounds are set
// by the machine the baseline was taken on: a 2-vCPU VM whose speed drifts
// by 10-25% over minutes, which the quartile range of ten runs sees in
// full (README.md). runs_spent and setup_heap_mib repeat exactly or nearly.
var endToEnd = []metricDef{
	{"runs_per_s", "1/s", "higher", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"runs_spent", "count", "lower", 0.05},
	{"setup_heap_mib", "MiB", "lower", 0.20},
}

// traced are the per-layer metrics of a traced run, beside the ladder.
var traced = []metricDef{
	{name: "core.clone_us.p50", unit: "us", better: "lower"},
	{name: "core.clone_us.p99", unit: "us", better: "lower"},
	{name: "apps.run_us.p50", unit: "us", better: "lower"},
	{name: "apps.run_us.p99", unit: "us", better: "lower"},
	{name: "classify.classify_us.p50", unit: "us", better: "lower"},
	{name: "classify.classify_us.p99", unit: "us", better: "lower"},
	{name: "core.pool_idle_frac", unit: "frac", better: "lower"},
	{name: "core.events_dropped", unit: "count", better: "lower"},
	{name: "core.profile_ops_per_run", unit: "ops", better: "lower"},
	{name: "vfs.sim_ms_per_run", unit: "ms", better: "lower"},
	{name: "core.trace_overhead_pct", unit: "%", better: "lower"},
	{name: "campaignd.lease_us.p50", unit: "us", better: "lower"},
	{name: "campaignd.lease_us.p99", unit: "us", better: "lower"},
	{name: "campaignd.records_us.p50", unit: "us", better: "lower"},
	{name: "campaignd.records_us.p99", unit: "us", better: "lower"},
	{name: "campaignd.heartbeat_us.p50", unit: "us", better: "lower"},
	{name: "campaignd.heartbeat_us.p99", unit: "us", better: "lower"},
	{name: "campaignd.complete_us.p50", unit: "us", better: "lower"},
	{name: "campaignd.complete_us.p99", unit: "us", better: "lower"},
	{name: "campaignd.lease_empty", unit: "count", better: "lower"},
	{name: "campaignd.records_per_post", unit: "count", better: "higher"},
	{name: "campaignd.client_rtt_us.p50", unit: "us", better: "lower"},
}

// perLayer lists every per-layer metric: the traced ones, then the ladder.
func perLayer() []metricDef {
	out := append([]metricDef(nil), traced...)
	for _, r := range ladder {
		out = append(out, metricDef{name: r.name, unit: r.unit, better: "lower"})
	}
	return out
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: fig7_grid, rw_tiered, mt2_adaptive or distributed_grid")
		seed    = flag.Uint64("seed", goldenSeed, "workload seed")
		seconds = flag.Int("seconds", runSeconds, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 reports end-to-end metrics")
		check   = flag.Bool("check", false, "run interleaved reps of every workload and fail when a metric's quartile range lies beyond "+baselinePath+" by more than its bound")
		write   = flag.Bool("write-baseline", false, "run interleaved reps of every workload and write "+baselinePath)
	)
	flag.Parse()
	die := func(err error) {
		fmt.Fprintf(os.Stderr, "ffisbench: %v\n", err)
		os.Exit(1)
	}
	if *check || *write {
		if err := gate(*check, *write, *seed, *seconds); err != nil {
			die(err)
		}
		return
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		die(fmt.Errorf("unknown -workload %q", *name))
	}
	if *trace != 0 && *trace != 1 {
		die(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	dur := time.Duration(*seconds) * time.Second
	var (
		values map[string]float64
		defs   []metricDef
		reps   []repResult
		err    error
	)
	if *trace == 1 {
		values, reps, err = runTraced(w, *seed, dur)
		defs = perLayer()
	} else {
		values, reps, err = runUntraced(w, *seed, dur)
		defs = endToEnd
	}
	if err == nil {
		err = verify(w.name, *seed, reps)
	}
	res := result{Correct: err == nil, Metrics: map[string]metric{}}
	for _, r := range reps {
		res.Attempted += r.runs + r.failed
		res.Failed += r.failed
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		fmt.Fprintf(os.Stderr, "%-36s %14.4f %s\n", d.name, values[d.name], d.unit)
	}
	if res.Attempted == 0 {
		die(errors.Join(errors.New("no run completed"), err))
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		die(jerr)
	}
	fmt.Println(string(line))
	if err != nil {
		die(err)
	}
}

// runUntraced sets the workload up setupReps times, then runs reps on the
// last set-up with tracing off until dur has passed.
func runUntraced(w workload, seed uint64, dur time.Duration) (map[string]float64, []repResult, error) {
	var setups []float64
	var c campaign
	for i := 0; i < setupReps; i++ {
		// Collect the previous set-up's worlds first, so no set-up pays
		// for another's garbage.
		c = nil
		runtime.GC()
		t0 := time.Now()
		var err error
		if c, err = w.setup(seed); err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	// The heap the set-up retains: worlds, snapshots, profile counts and
	// goldens the engine holds for the whole campaign.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	setupHeap := float64(ms.HeapAlloc) / (1 << 20)
	var reps []repResult
	var walls, rates []float64
	for t0 := time.Now(); len(reps) == 0 || time.Since(t0) < dur; {
		r, err := c.rep(nil)
		reps = append(reps, r)
		if err != nil {
			return nil, reps, err
		}
		walls = append(walls, r.wall.Seconds())
		rates = append(rates, float64(r.runs)/r.wall.Seconds())
	}
	return map[string]float64{
		"runs_per_s":     median(rates),
		"wall_s":         median(walls),
		"setup_s":        median(setups),
		"runs_spent":     float64(reps[0].runs),
		"setup_heap_mib": setupHeap,
	}, reps, nil
}

// runTraced sets the workload up once, then alternates untraced and traced
// reps (in ABBA order, so drift over the run falls on both sides) until dur
// has passed, and finally runs the layer ladder.
func runTraced(w workload, seed uint64, dur time.Duration) (map[string]float64, []repResult, error) {
	c, err := w.setup(seed)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	tr := newTracer()
	var reps []repResult
	var plain, withTrace []float64
	for i, t0 := 0, time.Now(); i < 4 || i%2 == 1 || time.Since(t0) < dur; i++ {
		traceThis := i%4 == 1 || i%4 == 2
		var r repResult
		if traceThis {
			r, err = c.rep(tr)
			tr.addWall(r.wall)
			withTrace = append(withTrace, r.wall.Seconds())
		} else {
			r, err = c.rep(nil)
			plain = append(plain, r.wall.Seconds())
		}
		reps = append(reps, r)
		if err != nil {
			return nil, reps, err
		}
	}
	m := tr.metrics()
	m["core.trace_overhead_pct"] = (median(withTrace)/median(plain) - 1) * 100
	rungs, err := runLadder()
	if err != nil {
		return nil, reps, err
	}
	for k, v := range rungs {
		m[k] = v
	}
	return m, reps, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
