// Command ffis runs a single fault-injection campaign cell: one application
// (nyx, qmcpack, MT1..MT4) under one registered fault model, named by its
// long name, short code, or alias — mirroring the paper's per-cell
// methodology (profile, N randomized injections, outcome classification).
// `ffis -list-models` (or `-model list`) prints the registry: any model
// added there, including the misdirected-write and short-read extensions,
// is immediately runnable with no CLI changes.
//
// Usage:
//
//	ffis -app nyx -model dw -runs 1000
//	ffis -app MT2 -model sw -runs 200 -csv
//	ffis -app MT2 -model latent -runs 200
//	ffis -app MT2 -model misdirected-write -runs 200
//	ffis -list-models
//
// Tiered storage: -backend names the root backend of the world (one of the
// hermetic backends mem, object[:lag=N] and latency[:bb|:pfs]), -mount
// mounts further backends over it (repeatable, syntax PATH[=BACKEND]), and
// -arm restricts injection to the I/O routed to the named mounts, leaving
// every other tier clean. Without -mount, -backend is the whole world:
//
//	ffis -app nyx -model bf -mount /plt00000 -mount /out -arm /plt00000
//	ffis -app nyx -model bf -mount /plt00000=latency:bb -arm /plt00000
//	ffis -app nyx -model bf -backend latency:pfs -mount /plt00000=latency:bb
//	ffis -app MT2 -model dw -backend object:lag=2
//
// Persistent results: -out streams every run record to a JSONL store as it
// completes, so a killed campaign loses nothing and the stored records can
// be re-rendered later. -resume continues an interrupted store from the
// first missing run, and -report re-renders a store without re-running
// anything. A resumed store is byte-identical to an uninterrupted run. To
// split a grid across machines, serve it with campaignd and attach
// ffis-worker processes.
//
//	ffis -app MT2 -model bf -runs 1000 -out ./res          # durable campaign
//	ffis -app MT2 -model bf -runs 1000 -out ./res -resume  # continue after a crash
//	ffis -out ./res -report markdown                       # re-render from disk
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/experiments"
	progressui "ffis/internal/progress"
	"ffis/internal/results"
	"ffis/internal/stats"
	"ffis/internal/trace"
	"ffis/internal/vfs"
)

func main() {
	var (
		app      = flag.String("app", "nyx", "campaign cell: nyx, qmcpack, MT1, MT2, MT3, MT4")
		model    = flag.String("model", "bf", "fault model name, short code, or alias (see -list-models); 'list' prints the registry")
		listOnly = flag.Bool("list-models", false, "print the fault-model registry table and exit")
		runs     = flag.Int("runs", 1000, "fault-injection runs (the paper uses 1000)")
		seed     = flag.Uint64("seed", 2021, "campaign seed")
		jobs     = flag.Int("jobs", 0, "parallel runs: campaign engine pool width (0 = GOMAXPROCS)")
		progress = flag.Bool("progress", false, "stream campaign progress to stderr")
		nyxN     = flag.Int("nyx-n", 0, "override the Nyx grid edge (0 = default 48)")
		useAvg   = flag.Bool("avg-detector", false, "apply the Nyx average-value detection method")
		asCSV    = flag.Bool("csv", false, "emit CSV instead of a table")
		asJSON   = flag.Bool("json", false, "emit the machine-readable JSON result")
		ioTrace  = flag.Bool("iotrace", false, "print the workload's fault-free I/O pattern profile first")
		traceOut = flag.String("trace", "", "stream per-run lifecycle events (spec_start, run_done with stage timings, barriers, spec_done) as JSONL to this file")
		adaptive = flag.Float64("adaptive", 0, "adaptive stopping: halt when every outcome rate's Wilson 95% half-width is under this target (-runs becomes the budget cap; 0 = fixed budget)")
		showCI   = flag.Bool("ci", false, "render outcome columns as rate ±halfwidth (Wilson 95%)")
		shots    = flag.Int("shots", 0, "override the fault model's shot budget (0 = model default; >1 only affects multi-shot models)")
		backend  = flag.String("backend", "mem", "root storage backend of the world, the whole world without -mount: mem, object[:lag=N], latency[:bb|:pfs]")
	)
	var (
		outDir    = flag.String("out", "", "stream run records to a JSONL results store at this directory")
		resume    = flag.Bool("resume", false, "resume the interrupted store at -out, skipping persisted runs")
		reportFmt = flag.String("report", "", "re-render the store at -out (text, csv, json, markdown) and exit without running")
	)
	var mountSpecs, armMounts []string
	flag.Func("mount", "mount a backend at PATH[=BACKEND] over the -backend root (repeatable; BACKEND: mem, object[:lag=N], latency[:bb|:pfs])", func(v string) error {
		mountSpecs = append(mountSpecs, v)
		return nil
	})
	flag.Func("arm", "arm the injector only on this mount point (repeatable; requires -mount)", func(v string) error {
		armMounts = append(armMounts, v)
		return nil
	})
	flag.Parse()

	if *listOnly || strings.EqualFold(*model, "list") {
		fmt.Print(core.ModelTable())
		return
	}

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "ffis: %v\n", err)
		os.Exit(1)
	}
	if (*resume || *reportFmt != "") && *outDir == "" {
		fmt.Fprintln(os.Stderr, "ffis: -resume and -report operate on a results store; add -out DIR")
		os.Exit(2)
	}
	if *reportFmt != "" {
		st, err := results.Open(*outDir)
		if err != nil {
			fail(err)
		}
		out, err := results.Report(st, *reportFmt)
		if err != nil {
			fail(err)
		}
		fmt.Print(out)
		return
	}
	fm, err := core.ParseModel(*model)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ffis: %v\n", err)
		os.Exit(2)
	}

	backendName := *backend
	if backendName == "mem" {
		backendName = ""
	}
	ws := experiments.WireSpec{
		Cell: *app, Model: fm.Name(), Runs: *runs, Seed: *seed, Shots: *shots, NyxN: *nyxN,
		Backend: backendName, Mounts: mountSpecs, ArmMounts: armMounts, AvgDetector: *useAvg,
	}
	// One check for every flag that shapes the campaign: known backends
	// and mounts, -arm only with -mount.
	if err := ws.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "ffis: %v\n", err)
		os.Exit(2)
	}
	opts := experiments.Options{CI: *showCI}
	if *adaptive > 0 {
		opts.Stop = &stats.StopRule{TargetHalfWidth: *adaptive}
	}
	var progressTo io.Writer
	if *progress {
		progressTo = os.Stderr
	}
	bus, finishEvents, err := progressui.Wire(progressTo, *traceOut, os.Stderr)
	if err != nil {
		fail(err)
	}
	// One engine for everything this invocation runs, so world snapshots
	// and profile passes memoize across grids instead of per call.
	opts.Engine = &core.Engine{Jobs: *jobs, Events: bus}
	if *outDir != "" {
		st, err := results.CreateOrResume(*outDir, *resume, results.Manifest{Seed: *seed, Runs: *runs})
		if err != nil {
			fail(err)
		}
		opts.RunGrid = func(e *core.Engine, specs []core.CampaignSpec) ([]core.GridResult, error) {
			return results.RunGrid(e, st, specs)
		}
	}
	if *ioTrace {
		w, err := opts.Engine.Workload(ws.WorldKey(), ws.Workload)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ffis: %v\n", err)
			os.Exit(1)
		}
		// Trace the instrumented phase on a post-Setup world built the way
		// the campaign builds it, so the printed profile matches what the
		// profiling pass is about to count.
		snap, err := core.NewWorldSnapshot(w)
		var world vfs.FS
		if err == nil {
			world, err = snap.World()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ffis: trace world: %v\n", err)
			os.Exit(1)
		}
		rec := trace.NewRecorder(world)
		if err := w.Run(rec); err != nil {
			fmt.Fprintf(os.Stderr, "ffis: trace run: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(trace.Analyze(rec.Log()).Render())
	}

	res, err := experiments.Fig7Cell(ws, opts)
	// Flush the event subscribers before rendering: the trace file must be
	// complete (and its drop count reported) whether the campaign
	// succeeded or not.
	if ferr := finishEvents(); ferr != nil {
		fmt.Fprintf(os.Stderr, "ffis: trace: %v\n", ferr)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ffis: %v\n", err)
		os.Exit(1)
	}
	if len(armMounts) > 0 {
		fmt.Printf("injector armed on mounts: %s (all other tiers stay clean)\n",
			strings.Join(armMounts, ", "))
	}
	if *outDir != "" {
		fmt.Printf("run records persisted to %s; re-render any time with -out %s -report FORMAT\n",
			*outDir, *outDir)
	}
	fmt.Printf("fault signature: %s\n", res.Signature)
	fmt.Printf("profiled %d dynamic executions of the target primitive\n", res.ProfileCount)
	if res.StopIndex > 0 {
		fmt.Printf("adaptive stop at run %d of the %d-run budget (target half-width %.3g)\n",
			res.StopIndex, *runs, *adaptive)
	}
	if res.SimNanos > 0 {
		fmt.Printf("simulated I/O time: %.3fms across all runs\n", float64(res.SimNanos)/1e6)
	}
	executed := res.Tally.Total()
	switch {
	case *asJSON:
		if err := core.WriteResultsJSON(os.Stdout, []core.CampaignResult{res}); err != nil {
			fmt.Fprintf(os.Stderr, "ffis: %v\n", err)
			os.Exit(1)
		}
	case *asCSV && *showCI:
		fmt.Print(classify.CSVCI([]classify.Cell{res.Cell()}))
	case *asCSV:
		fmt.Print(classify.CSV([]classify.Cell{res.Cell()}))
	case *showCI:
		fmt.Print(classify.TableCI(fmt.Sprintf("campaign %s (%d runs)", res.Cell().Label, executed),
			[]classify.Cell{res.Cell()}))
	default:
		fmt.Print(classify.Table(fmt.Sprintf("campaign %s (%d runs)", res.Cell().Label, executed),
			[]classify.Cell{res.Cell()}))
	}
}
