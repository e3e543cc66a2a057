package experiments

// The read-vs-write characterization. The paper's Figure 7 injects faults
// that surface on the write path; its own motivation (SSD UBER, data at
// rest corrupted between a producing and a consuming stage) describes
// faults that surface at *read* time. This file sweeps three applications
// under both model families — the Table I write models and the read-side
// models (read bit rot, unreadable sectors, latent corruption) — on both a
// flat single-device world and a tiered mount layout, as one engine grid.
//
// The Figure 7 cells only write during their instrumented phase (analysis
// happens in Classify, on the clean view), so read faults would have
// nowhere to land. The grid therefore runs producer→consumer pipeline
// variants: Nyx writes the plotfile and then the halo finder consumes it
// through the same (armed) file system, persisting its catalog; QMCPACK
// writes the scalar files and then the QMCA analysis reads the DMC series
// back and persists the energy estimate. Montage MT2 already consumes the
// projected tiles written by Setup, so it runs unchanged. Outcomes are
// classified on the consumer's own product — the artifact the science
// actually uses.

import (
	"fmt"
	"strconv"
	"strings"

	"ffis/internal/apps/nyx"
	"ffis/internal/apps/qmcpack"
	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/vfs"
)

// ReadWriteCells lists the applications of the read-vs-write grid: one
// pipeline variant per paper application.
var ReadWriteCells = []string{"nyx", "qmcpack", "MT2"}

// readWritePlacements names the two storage worlds every cell runs on.
var readWritePlacements = []string{"flat", "tiered"}

// NewPipelineWorkload builds the producer→consumer variant of a grid cell:
// the instrumented Run phase both writes the stage products and reads them
// back for post-analysis, so read-path fault signatures have dynamic
// instances to land on. The consumer persists its result, and Classify
// judges that artifact.
func NewPipelineWorkload(cell string, o Options) (core.Workload, error) {
	return newWorkload(cell, o, true)
}

// nyxPipeline is the Nyx pipeline variant: the simulation writes the
// plotfile, then the halo finder reads it back and persists its catalog.
func nyxPipeline(app *nyx.App) core.Workload {
	run := func(fs vfs.FS, sc *nyx.Scratch) error {
		if err := app.Run(fs); err != nil { // producer: plotfile
			return err
		}
		_, text, err := app.Analyze(fs, sc) // consumer: halo finder
		if err != nil {
			return err
		}
		return vfs.WriteFile(fs, "/out/halos.txt", []byte(text))
	}
	w := core.Workload{
		Name:  "nyx",
		Setup: func(fs vfs.FS) error { return fs.MkdirAll("/out") },
		Run:   func(fs vfs.FS) error { return run(fs, new(nyx.Scratch)) },
		Classify: func(fs vfs.FS, runErr error) classify.Outcome {
			if runErr != nil {
				return classify.Crash
			}
			got, err := vfs.ReadFile(fs, "/out/halos.txt")
			if err != nil {
				return classify.Crash
			}
			switch {
			case string(got) == app.Golden():
				return classify.Benign
			case strings.Contains(string(got), "nhalos 0"):
				return classify.Detected // empty catalog: visibly wrong
			default:
				return classify.SDC
			}
		},
	}
	w.Worker = func() (func(vfs.FS) error, func(vfs.FS, error) classify.Outcome) {
		sc := new(nyx.Scratch)
		return func(fs vfs.FS) error { return run(fs, sc) }, w.Classify
	}
	return w
}

// qmcPipeline is the QMCPACK pipeline variant: the simulation writes the
// scalar files, then the QMCA analysis reads the DMC series back and
// persists the energy estimate.
func qmcPipeline(app *qmcpack.App) core.Workload {
	goldenE := app.GoldenEnergy()
	return core.Workload{
		Name:  "qmcpack",
		Setup: func(fs vfs.FS) error { return fs.MkdirAll("/out") },
		Run: func(fs vfs.FS) error {
			if err := app.Run(fs); err != nil { // producer: scalar files
				return err
			}
			raw, err := vfs.ReadFile(fs, qmcpack.DMCPath) // consumer: QMCA
			if err != nil {
				return err
			}
			analysis, err := app.AnalyzeDMC(raw)
			if err != nil {
				return err
			}
			return vfs.WriteFile(fs, "/out/energy.dat",
				[]byte(fmt.Sprintf("%.10f\n", analysis.Energy)))
		},
		Classify: func(fs vfs.FS, runErr error) classify.Outcome {
			if runErr != nil {
				return classify.Crash
			}
			raw, err := vfs.ReadFile(fs, "/out/energy.dat")
			if err != nil {
				return classify.Crash
			}
			e, err := strconv.ParseFloat(strings.TrimSpace(string(raw)), 64)
			if err != nil {
				return classify.Crash
			}
			switch {
			case e == goldenE:
				return classify.Benign
			case e >= qmcpack.SDCWindowLo && e <= qmcpack.SDCWindowHi:
				return classify.SDC
			default:
				return classify.Detected
			}
		},
	}
}

// ReadWriteGrid runs the read-vs-write characterization: every cell ×
// every registered fault model (write family ∪ read family) × {flat,
// tiered} world, as one engine grid. The model axis comes straight from
// the registry, so a newly registered model — misdirected-write and
// short-read ship this way — joins the grid with no edits here. It returns
// the rendered Figure 7-style table plus the raw cells in spec order.
func ReadWriteGrid(o Options) (string, []classify.Cell, error) {
	o = o.normalize()
	var specs []WireSpec
	for _, cell := range ReadWriteCells {
		for _, placement := range readWritePlacements {
			for _, model := range core.AllModels() {
				ws := WireSpec{
					Key:  cell + "." + placement + "/" + model.Short(),
					Cell: cell, Model: model.Name(), Runs: o.Runs, Seed: o.Seed, NyxN: o.NyxN,
					Pipeline: true,
				}
				if placement == "tiered" {
					ws = ws.tiered("mem")
				}
				specs = append(specs, ws)
			}
		}
	}
	cells, err := o.cells("cell", specs)
	if err != nil {
		return "", nil, err
	}
	var shorts []string
	for _, m := range core.AllModels() {
		shorts = append(shorts, m.Short())
	}
	title := fmt.Sprintf("Read-path vs write-path faults (%d runs per cell; registered models %s)",
		o.Runs, strings.Join(shorts, "/"))
	return o.table(title, cells), cells, nil
}
