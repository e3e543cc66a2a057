// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -all -runs 1000            # everything, paper scale
//	experiments -table 3                   # just the metadata campaign
//	experiments -fig 7 -runs 200           # the characterization, reduced
//	experiments -fig 5 -outdir ./artifacts # writes PGM visualizations
//	experiments -tiered -runs 200          # fault placement across storage tiers
//	experiments -tiered -backend mem -backend object -backend latency
//	                                       # ...swept across storage backends too
//	experiments -readwrite -runs 200       # read-path vs write-path fault families
//	experiments -fig 7 -jobs 8 -progress   # 8-wide engine pool, streamed progress
//
// Campaign grids (-fig 7, -ablation, -detector-study, -tiered, -readwrite)
// run on the campaign engine: each cell's Setup executes once and every
// injection run gets a copy-on-write clone of that snapshot, with all cells
// drawing from one bounded worker pool (-jobs).
//
// Persistent results: -out streams every grid cell's run records to a JSONL
// store, -resume continues an interrupted store (finalized cells load from
// disk, partial cells pick up at the first missing run), and -report
// re-renders a store as text, CSV, JSON, or Markdown without re-running
// anything. To split a grid across machines, serve it with campaignd and
// attach ffis-worker processes.
//
//	experiments -fig 7 -runs 1000 -out ./fig7
//	experiments -fig 7 -runs 1000 -out ./fig7 -resume   # after a crash
//	experiments -out ./fig7 -report markdown
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"ffis/internal/core"
	"ffis/internal/experiments"
	progressui "ffis/internal/progress"
	"ffis/internal/results"
	"ffis/internal/stats"
)

func main() {
	var (
		table    = flag.Int("table", 0, "regenerate one table (1-4)")
		fig      = flag.Int("fig", 0, "regenerate one figure (5-9)")
		all      = flag.Bool("all", false, "regenerate every table and figure")
		runs     = flag.Int("runs", 1000, "runs per Figure 7 campaign cell")
		seed     = flag.Uint64("seed", 2021, "campaign seed")
		jobs     = flag.Int("jobs", 0, "parallel runs: campaign engine pool width shared across the whole grid (0 = GOMAXPROCS)")
		progress = flag.Bool("progress", false, "stream per-campaign progress to stderr while grids run")
		nyxN     = flag.Int("nyx-n", 0, "override the Nyx grid edge")
		stride   = flag.Int("meta-stride", 1, "Table III byte stride (1 = exhaustive)")
		useAvg   = flag.Bool("avg-detector", false, "apply the Nyx average-value method in Figure 7")
		ablation = flag.Bool("ablation", false, "run the design-choice ablation sweeps")
		detector = flag.Bool("detector-study", false, "run the Nyx with/without average-value comparison")
		tiered   = flag.Bool("tiered", false, "run the tiered-storage placement sweep (fault tier vs clean tiers)")
		rw       = flag.Bool("readwrite", false, "run the read-path vs write-path fault grid over every registered model")
		model    = flag.String("model", "", "restrict the -tiered sweep to one fault model (name, short code, or alias; default: the Table I write family)")
		listOnly = flag.Bool("list-models", false, "print the fault-model registry table and exit")
		outdir   = flag.String("outdir", "", "directory for image artifacts (Figures 5 and 9)")
		adaptive = flag.Float64("adaptive", 0, "adaptive stopping: each cell halts when every outcome rate's Wilson 95% half-width is under this target (-runs becomes the budget cap; 0 = fixed budget)")
		showCI   = flag.Bool("ci", false, "render campaign tables as rate ±halfwidth (Wilson 95%) columns")
		traceOut = flag.String("trace", "", "stream per-run lifecycle events (spec_start, run_done with stage timings, barriers, spec_done) as JSONL to this file")
		storeDir = flag.String("out", "", "stream grid run records to a JSONL results store at this directory")
		resume   = flag.Bool("resume", false, "resume the interrupted store at -out, skipping persisted work")
		report   = flag.String("report", "", "re-render the store at -out (text, csv, json, markdown) and exit without running")
	)
	var backends []string
	flag.Func("backend", "storage backend the -tiered sweep runs every placement under (repeatable: mem, object[:lag=N], latency[:bb|:pfs]; default mem)", func(v string) error {
		backends = append(backends, v)
		return nil
	})
	flag.Parse()

	if *listOnly || strings.EqualFold(*model, "list") {
		fmt.Print(core.ModelTable())
		return
	}

	o := experiments.Options{
		Runs:           *runs,
		Seed:           *seed,
		NyxN:           *nyxN,
		MetaStride:     *stride,
		UseAvgDetector: *useAvg,
		CI:             *showCI,
		Backends:       backends,
	}
	for _, b := range backends {
		if err := experiments.ValidateBackend(b); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: -backend: %v\n", err)
			os.Exit(2)
		}
	}
	var progressTo io.Writer
	if *progress {
		progressTo = os.Stderr
	}
	bus, finishEvents, err := progressui.Wire(progressTo, *traceOut, os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	// Share one engine across every sweep this invocation runs (-all runs
	// several), so each distinct world's Setup and profile pass execute
	// once per process instead of once per sweep.
	o.Engine = &core.Engine{Jobs: *jobs, Events: bus}
	if *adaptive > 0 {
		o.Stop = &stats.StopRule{TargetHalfWidth: *adaptive}
	}

	die := func(err error) {
		// Flush the trace subscribers so a failed grid still leaves a
		// complete event file behind.
		if ferr := finishEvents(); ferr != nil {
			fmt.Fprintf(os.Stderr, "experiments: trace: %v\n", ferr)
		}
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}

	if (*resume || *report != "") && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "experiments: -resume and -report operate on a results store; add -out DIR")
		os.Exit(2)
	}
	if *report != "" {
		st, err := results.Open(*storeDir)
		if err != nil {
			die(err)
		}
		out, err := results.Report(st, *report)
		if err != nil {
			die(err)
		}
		fmt.Print(out)
		return
	}
	if *storeDir != "" {
		st, err := results.CreateOrResume(*storeDir, *resume, results.Manifest{Seed: *seed, Runs: *runs})
		if err != nil {
			die(err)
		}
		o.RunGrid = func(e *core.Engine, specs []core.CampaignSpec) ([]core.GridResult, error) {
			return results.RunGrid(e, st, specs)
		}
	}
	saveImages := func(prefix string, images map[string][]byte) {
		if *outdir == "" {
			return
		}
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			die(err)
		}
		for _, name := range slices.Sorted(maps.Keys(images)) {
			p := filepath.Join(*outdir, fmt.Sprintf("%s_%s.pgm", prefix, name))
			if err := os.WriteFile(p, images[name], 0o644); err != nil {
				die(err)
			}
			fmt.Printf("  wrote %s\n", p)
		}
	}

	wantTable := func(n int) bool { return *all || *table == n }
	wantFig := func(n int) bool { return *all || *fig == n }
	ranSomething := false
	// emit prints one rendered artifact; an error is fatal.
	emit := func(out string, err error) {
		if err != nil {
			die(err)
		}
		fmt.Println(out)
		ranSomething = true
	}

	if wantTable(1) {
		emit(experiments.Table1(), nil)
	}
	if wantTable(2) {
		emit(experiments.Table2(), nil)
	}
	if wantTable(3) {
		out, _, err := experiments.Table3(o)
		emit(out, err)
	}
	if wantTable(4) {
		out, _, err := experiments.Table4(o)
		emit(out, err)
	}
	if wantFig(5) {
		out, images, err := experiments.Fig5(o)
		emit(out, err)
		saveImages("fig5", images)
	}
	if wantFig(6) {
		emit(experiments.Fig6(o))
	}
	if wantFig(7) {
		out, _, err := experiments.Fig7(o)
		emit(out, err)
	}
	if wantFig(8) {
		emit(experiments.Fig8(o))
	}
	if wantFig(9) {
		out, images, err := experiments.Fig9(o)
		emit(out, err)
		saveImages("fig9", images)
	}
	if *ablation || *all {
		emit(experiments.Ablations(o))
	}
	if *detector || *all {
		emit(experiments.Fig7WithDetector(o))
	}
	if *tiered || *all {
		models := experiments.Fig7Models()
		if *model != "" {
			m, err := core.ParseModel(*model)
			if err != nil {
				die(err)
			}
			models = []core.Model{m}
		}
		for _, m := range models {
			out, _, err := experiments.Tiered(nil, m, o)
			emit(out, err)
		}
	}
	if *rw || *all {
		out, _, err := experiments.ReadWriteGrid(o)
		emit(out, err)
	}
	if err := finishEvents(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: trace: %v\n", err)
	}
	if !ranSomething {
		flag.Usage()
		os.Exit(2)
	}
}
