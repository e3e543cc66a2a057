// Package experiments regenerates every table and figure of the paper's
// evaluation section. cmd/experiments drives it from the command line and
// the repository-root benchmarks call into it with reduced run counts.
//
// Each function returns the rendered artifact (text table or image bytes)
// plus the underlying measurements, so callers can both print
// paper-comparable output and assert on shapes.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"ffis/internal/apps/montage"
	"ffis/internal/apps/nyx"
	"ffis/internal/apps/qmcpack"
	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/hdf5"
	"ffis/internal/metainject"
	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// Options scales the campaigns. Zero values select the paper-scale
// defaults.
type Options struct {
	// Runs per Figure 7 campaign cell (paper: 1,000).
	Runs int
	// Seed for all campaigns.
	Seed uint64
	// NyxN overrides the Nyx grid edge (0 = DefaultSim).
	NyxN int
	// MetaStride samples the Table III byte sweep (1 = exhaustive).
	MetaStride int
	// UseAvgDetector applies the Nyx average-value method during
	// classification ("all SDC cases with Nyx will be changed to
	// detected cases after using the average-value-based method") to the
	// standard Nyx cell of Fig7, Ablations and Tiered.
	UseAvgDetector bool
	// Backends lists the storage backends the tiered sweep runs every
	// placement under (cmd/experiments -backend, repeatable); empty sweeps
	// the default {"mem"}.
	Backends []string
	// RunGrid, when set, replaces Engine.Run for every campaign grid in
	// this package: the persistence layer (internal/results.RunGrid via
	// the CLIs' -out/-resume flags) injects itself here to stream records
	// to disk and skip already-persisted work — without this package
	// importing the store. Nil runs grids in-memory, exactly as before.
	RunGrid func(e *core.Engine, specs []core.CampaignSpec) ([]core.GridResult, error)
	// Stop, when set, runs every campaign cell under the adaptive stopping
	// rule (cmd flag -adaptive): Runs becomes a budget cap and each cell
	// halts at the first barrier where every outcome rate's Wilson 95%
	// half-width is under the target. Nil keeps the fixed budget.
	Stop *stats.StopRule
	// CI switches campaign tables to per-outcome "rate ±halfwidth" columns
	// (cmd flag -ci) — the units an adaptive stopping rule is stated in.
	CI bool
	// Engine, when set, is the campaign engine every grid in these options
	// runs on: its Jobs bounds the shared worker pool across a whole grid
	// (every cell of Fig7, Ablations, Fig7WithDetector, Tiered draws runs
	// from one pool) and its Events bus carries every campaign's
	// run-lifecycle stream. The engine memoizes built worlds, snapshots,
	// and profile counts by WorldKey, so sharing one across sweeps (cmd
	// -all, the distributed worker's successive leases) means each distinct
	// world's Setup executes once per process instead of once per sweep.
	// Nil builds a default engine (GOMAXPROCS slots, no bus) per grid.
	Engine *core.Engine
}

// engine resolves the engine grids run on: the shared one when set.
func (o Options) engine() *core.Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return &core.Engine{}
}

// runGrid runs a grid of wire specs the way a campaignd worker runs its
// leases: each workload comes from the engine by WorldKey (built once per
// world), each spec from CampaignSpecOn, plus the options' stopping rule.
// The specs then run through the durable RunGrid hook when set, the plain
// in-memory engine otherwise. Every grid in this package goes through
// here, so -out/-resume apply uniformly to Fig7, the ablations, the
// detector study, the tiered sweep, and the read/write grid.
func (o Options) runGrid(specs []WireSpec) ([]core.GridResult, error) {
	e := o.engine()
	cspecs := make([]core.CampaignSpec, len(specs))
	for i, ws := range specs {
		w, err := e.Workload(ws.WorldKey(), ws.Workload)
		if err != nil {
			return nil, err
		}
		cspecs[i] = ws.CampaignSpecOn(w)
		cspecs[i].Config.Stop = o.Stop
	}
	if o.RunGrid != nil {
		return o.RunGrid(e, cspecs)
	}
	return e.Run(cspecs), nil
}

// cells runs a grid of wire specs through runGrid and labels each tally
// with its spec key. The first failed spec fails the grid as
// "<what> <key>: <cause>".
func (o Options) cells(what string, specs []WireSpec) ([]classify.Cell, error) {
	grid, err := o.runGrid(specs)
	if err != nil {
		return nil, err
	}
	cells := make([]classify.Cell, len(grid))
	for i, r := range grid {
		if r.Err != nil {
			return nil, fmt.Errorf("%s %s: %w", what, r.Spec.Key, r.Err)
		}
		cells[i] = classify.Cell{Label: r.Spec.Key, Tally: r.Result.Tally}
	}
	return cells, nil
}

// wire is the wire spec of one local grid cell: the options' run budget,
// seed and Nyx edge, and the average-value detector on the Nyx cell when
// UseAvgDetector is set.
func (o Options) wire(cell string, model core.Model) WireSpec {
	return WireSpec{
		Cell: cell, Model: model.Name(), Runs: o.Runs, Seed: o.Seed, NyxN: o.NyxN,
		AvgDetector: o.UseAvgDetector && cell == "nyx",
	}
}

// table renders campaign cells in the configured style: the classic
// percentage columns, or — under CI — every outcome as "rate ±halfwidth"
// with the per-cell run count, which adaptive stopping makes non-uniform.
func (o Options) table(title string, cells []classify.Cell) string {
	if o.CI {
		return classify.TableCI(title, cells)
	}
	return classify.Table(title, cells)
}

// paper-scale defaults.
func (o Options) normalize() Options {
	if o.Runs <= 0 {
		o.Runs = 1000
	}
	if o.Seed == 0 {
		o.Seed = 2021
	}
	if o.MetaStride <= 0 {
		o.MetaStride = 1
	}
	if len(o.Backends) == 0 {
		o.Backends = []string{"mem"}
	}
	return o
}

func (o Options) nyxSim() nyx.SimConfig {
	sim := nyx.DefaultSim()
	if o.NyxN > 0 {
		sim.N = o.NyxN
		// Keep the halo mass budget proportional to the volume.
		sim.NumHalos = sim.N * sim.N * sim.N / 9216
		if sim.NumHalos < 3 {
			sim.NumHalos = 3
		}
	}
	return sim
}

// Fig7Models returns the paper's Table I write-model vocabulary (BF, SW,
// DW) the Figure 7 grids sweep, resolved through the model registry in the
// paper's presentation order.
func Fig7Models() []core.Model {
	return []core.Model{
		core.MustModel("bit-flip"),
		core.MustModel("shorn-write"),
		core.MustModel("dropped-write"),
	}
}

// paperPrimitives is Table I's "examples of affected FUSE primitives"
// column as the paper states it, for the three models the paper defines.
var paperPrimitives = map[string][]string{
	"bit-flip":      {"write", "mknod", "chmod", "truncate"},
	"shorn-write":   {"write", "mknod", "chmod"},
	"dropped-write": {"write", "mknod", "chmod", "truncate"},
}

// Table1 renders the fault model specification: the Table I rows plus every
// further model the registry knows (the read-path family and any new
// registrations), so the table is regenerated rather than transcribed. A
// star marks the one listed primitive each model faults here.
func Table1() string {
	var b strings.Builder
	b.WriteString("Table I: fault models supported by FFIS\n")
	fmt.Fprintf(&b, "%-22s %-52s %s\n", "fault model", "examples of affected FUSE primitives", "features")
	for _, m := range core.AllModels() {
		host := string(m.Host())
		prims, ok := paperPrimitives[m.Name()]
		if !ok {
			prims = []string{host}
		}
		names := make([]string, len(prims))
		for i, p := range prims {
			names[i] = "FFIS_" + p
			if p == host {
				names[i] += "*"
			}
		}
		fmt.Fprintf(&b, "%-22s %-52s %s\n", m.Name(), strings.Join(names, ", "), m.Describe())
	}
	b.WriteString("* the primitive this harness faults; no application here issues mknod, chmod or truncate\n")
	return b.String()
}

// Table2 renders the application descriptions (Table II).
func Table2() string {
	var b strings.Builder
	b.WriteString("Table II: description of tested HPC applications\n")
	for _, d := range []string{nyx.Describe(), qmcpack.Describe(), montage.Describe()} {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

// Table3 runs the byte-by-byte HDF5 metadata campaign.
func Table3(o Options) (string, *metainject.Result, error) {
	o = o.normalize()
	res, err := metainject.Run(metainject.CampaignConfig{
		Sim:    o.nyxSim(),
		Halo:   nyx.DefaultHalo(),
		Stride: o.MetaStride,
		Seed:   o.Seed,
	})
	if err != nil {
		return "", nil, err
	}
	return metainject.RenderTable3(res), res, nil
}

// Table4 runs the directed per-field study of the six SDC-prone fields.
func Table4(o Options) (string, []metainject.FieldEffect, error) {
	o = o.normalize()
	effects, err := metainject.FieldStudy(o.nyxSim(), nyx.DefaultHalo())
	if err != nil {
		return "", nil, err
	}
	return metainject.RenderTable4(effects), effects, nil
}

// Fig7CellName enumerates the Figure 7 campaign cells.
var Fig7Cells = []string{"nyx", "qmcpack", "MT1", "MT2", "MT3", "MT4"}

// NewWorkload constructs the campaign workload for a Figure 7 cell name on
// the workload's own flat MemFS world; a WireSpec names any other world.
func NewWorkload(cell string, o Options) (core.Workload, error) {
	return newWorkload(cell, o, false)
}

// newWorkload builds the application of a cell name or alias once and
// returns its standard workload or, with pipeline, its producer→consumer
// variant (NewPipelineWorkload).
func newWorkload(cell string, o Options, pipeline bool) (core.Workload, error) {
	o = o.normalize()
	switch name := cellWorkloads[cell]; name {
	case "nyx":
		app, err := nyx.NewApp(o.nyxSim(), nyx.DefaultHalo())
		if err != nil {
			return core.Workload{}, err
		}
		if pipeline {
			return nyxPipeline(app), nil
		}
		app.UseAvgDetector = o.UseAvgDetector
		return app.Workload(), nil
	case "qmcpack":
		app, err := qmcpack.NewApp(qmcpack.DefaultQMC())
		if err != nil {
			return core.Workload{}, err
		}
		if pipeline {
			return qmcPipeline(app), nil
		}
		return app.Workload(), nil
	case "MT1", "MT2", "MT3", "MT4":
		// Montage stages past the first already read their inputs during
		// Run; the standard cell is its own pipeline variant.
		app, err := montage.NewApp(montage.DefaultConfig(), montage.Stage(name[2]-'0'))
		if err != nil {
			return core.Workload{}, err
		}
		return app.Workload(), nil
	default:
		return core.Workload{}, fmt.Errorf("experiments: unknown cell %q (want one of %v)", cell, Fig7Cells)
	}
}

// Fig7Cell runs one campaign cell — the wire spec ws — on the engine, so
// cmd/ffis single-cell invocations get the same COW-snapshot fast path and
// progress stream as full grids. Of the options it takes the engine, the
// RunGrid hook and the stopping rule; ws names everything else. Read-path
// models run the cell's producer→consumer pipeline variant: the standard
// Figure 7 phases of nyx and qmcpack only write (analysis happens during
// classification), so a read fault would have no dynamic instance to land
// on.
func Fig7Cell(ws WireSpec, o Options) (core.CampaignResult, error) {
	grid, err := o.runGrid([]WireSpec{ws})
	if err != nil {
		return core.CampaignResult{}, err
	}
	return grid[0].Result, grid[0].Err
}

// Fig7 runs the full characterization — every cell × every fault model — as
// one engine grid: all campaigns share a bounded worker pool, each cell's
// Setup executes once and is COW-cloned per run, and the per-cell profiling
// pass is shared by the three fault models.
func Fig7(o Options) (string, []classify.Cell, error) {
	o = o.normalize()
	var specs []WireSpec
	for _, cell := range Fig7Cells {
		for _, model := range Fig7Models() {
			specs = append(specs, o.wire(cell, model))
		}
	}
	cells, err := o.cells("cell", specs)
	if err != nil {
		return "", nil, err
	}
	title := fmt.Sprintf("Figure 7: characterization of I/O faults (%d runs per cell)", o.Runs)
	return o.table(title, cells), cells, nil
}

// Fig8 compares the halo-mass distribution of the golden Nyx run with a
// dropped-write SDC run.
func Fig8(o Options) (string, error) {
	o = o.normalize()
	app, err := nyx.NewApp(o.nyxSim(), nyx.DefaultHalo())
	if err != nil {
		return "", err
	}
	golden := app.GoldenCatalog()

	// Find a dropped-write run that produced SDC and recover its catalog.
	// The predicates below decide from the catalog alone, so the replays
	// skip classification.
	w := app.Workload()
	w.Classify, w.Worker = nil, nil
	spec := core.CampaignSpec{
		Workload: w,
		Config:   core.CampaignConfig{Fault: core.Config{Model: core.DroppedWrite}, Seed: o.Seed},
	}
	var (
		e      core.Engine
		sc     nyx.Scratch
		faulty nyx.Catalog
		found  bool
	)
	count, err := e.Profile(spec)
	if err != nil {
		return "", err
	}
	for t := range count {
		rec, world, err := e.Replay(spec, int(t), t)
		if err != nil {
			return "", err
		}
		if rec.RunErr != nil {
			continue
		}
		cat, text, err := app.Analyze(world, &sc)
		if err != nil || len(cat.Halos) == 0 || text == app.Golden() {
			continue
		}
		if !found {
			faulty = cat
			found = true
			continue
		}
		// Prefer an SDC whose halo masses visibly moved (the dropped
		// block struck halo cells), matching the Figure 8 panels where
		// the large-mass tail of the distribution shifts.
		if massCatalogDiffers(golden, cat) && !massCatalogDiffers(golden, faulty) {
			faulty = cat
		}
	}
	if !found {
		return "", fmt.Errorf("experiments: no dropped-write SDC found for Figure 8")
	}

	hiMass := golden.Halos[0].Mass // NewApp fails on no halos; heaviest first
	gh := golden.MassHistogram(0, hiMass*1.05, 12)
	fh := faulty.MassHistogram(0, hiMass*1.05, 12)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: halo-finder mass distribution, original vs dropped-write SDC\n")
	fmt.Fprintf(&b, "original (%d halos, mean density %.6f):\n%s", len(golden.Halos), golden.Mean, gh.Render(40))
	fmt.Fprintf(&b, "faulty   (%d halos, mean density %.6f):\n%s", len(faulty.Halos), faulty.Mean, fh.Render(40))
	fmt.Fprintf(&b, "L1 distance between distributions: %d\n", gh.L1Distance(fh))
	fmt.Fprintf(&b, "average-value detector flags the faulty run: %v (mean deviates by %.4f%%)\n",
		nyx.DetectByAverage(faulty.Mean), 100*math.Abs(faulty.Mean-1))
	return b.String(), nil
}

// massCatalogDiffers reports whether any mass-rank-matched halo pair
// differs by more than 0.1% (or the halo counts differ).
func massCatalogDiffers(a, b nyx.Catalog) bool {
	if len(a.Halos) != len(b.Halos) {
		return true
	}
	for i := range a.Halos {
		if math.Abs(a.Halos[i].Mass-b.Halos[i].Mass) > 1e-3*a.Halos[i].Mass {
			return true
		}
	}
	return false
}

// nyxGolden builds the Nyx app of o's grid and a fresh copy of the image
// its runs write, field map included.
func (o Options) nyxGolden() (*nyx.App, *hdf5.FileImage, error) {
	app, err := nyx.NewApp(o.nyxSim(), nyx.DefaultHalo())
	if err != nil {
		return nil, nil, err
	}
	img, err := app.Image()
	return app, img, err
}

// Fig5 produces the density-slice visualizations for the original field,
// the Exponent Bias fault (scaled data), and the ARD fault (shifted data).
// It returns a textual summary and the three PGM images.
func Fig5(o Options) (string, map[string][]byte, error) {
	_, img, err := o.normalize().nyxGolden()
	if err != nil {
		return "", nil, err
	}
	pristine := img.Bytes()
	images := map[string][]byte{}
	var b strings.Builder
	b.WriteString("Figure 5: visualization of typical metadata SDC cases\n")

	slice := func(name string, raw []byte) error {
		vals, n, err := nyx.DecodeDataset(raw)
		if err != nil {
			return err
		}
		images[name] = nyx.SlicePGM(vals, n, n/2)
		fmt.Fprintf(&b, "  %-14s mean=%.6g\n", name, stats.Mean(vals))
		return nil
	}
	if err := slice("original", pristine); err != nil {
		return "", nil, err
	}
	biasFault := append([]byte(nil), pristine...)
	biasFault[img.Fields.Find("exponentBias")[0].Offset] ^= 0x04 // bias-4: scale 16
	if err := slice("exponent-bias", biasFault); err != nil {
		return "", nil, err
	}
	ardFault := append([]byte(nil), pristine...)
	ardFault[img.Fields.Find("addressOfRawData")[0].Offset] ^= 0x40 // shift 64 B
	if err := slice("ard-shift", ardFault); err != nil {
		return "", nil, err
	}
	b.WriteString("  (exponent-bias scales the input; ard-shift translates it)\n")
	return b.String(), images, nil
}

// Fig6 reports the halo-candidate loss under a Mantissa Size fault.
func Fig6(o Options) (string, error) {
	app, img, err := o.normalize().nyxGolden()
	if err != nil {
		return "", err
	}
	golden := app.GoldenCatalog()
	center := golden.Halos[0].Center

	raw := img.Bytes()
	field, n, err := nyx.DecodeDataset(raw)
	if err != nil {
		return "", err
	}
	raw[img.Fields.Find("float.mantissaSize")[0].Offset] ^= 0x08
	vals, _, err := nyx.DecodeDataset(raw)
	if err != nil {
		return "", err
	}
	origCount := nyx.CandidateCensus(field, n, nyx.DefaultHalo(), center, 4)
	faultCount := nyx.CandidateCensus(vals, n, nyx.DefaultHalo(), center, 4)
	faultyCat := nyx.FindHalos(vals, n, nyx.DefaultHalo())
	var b strings.Builder
	b.WriteString("Figure 6: halo-cell candidates around the largest halo, original vs faulty Mantissa Size\n")
	fmt.Fprintf(&b, "  original: %d candidates within radius 4; %d halos total\n", origCount, len(golden.Halos))
	fmt.Fprintf(&b, "  faulty:   %d candidates within radius 4; %d halos total (avg=%.4g)\n",
		faultCount, len(faultyCat.Halos), faultyCat.Mean)
	return b.String(), nil
}

// Fig9 reproduces the dropped-write Montage mosaic: it returns a summary,
// the golden and faulty PGM images, and the min statistics.
func Fig9(o Options) (string, map[string][]byte, error) {
	o = o.normalize()
	app, err := montage.NewApp(montage.DefaultConfig(), montage.StageAdd)
	if err != nil {
		return "", nil, err
	}
	images := map[string][]byte{"original": app.GoldenImage()}
	goldenMin := app.GoldenMin()

	// Dropped-write run: scan injection targets for the Figure 9
	// black-stripe phenotype (detected: min escapes the window). The
	// predicates below read the mosaic and its min, so the replays skip
	// classification.
	w := app.Workload()
	w.Classify, w.Worker = nil, nil
	spec := core.CampaignSpec{
		Workload: w,
		Config:   core.CampaignConfig{Fault: core.Config{Model: core.DroppedWrite}, Seed: o.Seed},
	}
	var e core.Engine
	count, err := e.Profile(spec)
	if err != nil {
		return "", nil, err
	}
	for t := range count {
		rec, world, err := e.Replay(spec, int(t), t)
		if err != nil {
			return "", nil, err
		}
		if rec.RunErr != nil {
			continue
		}
		img, err := vfs.ReadFile(world, montage.ImagePath)
		if err != nil {
			continue
		}
		minV, err := montage.ReadMin(world)
		if err != nil {
			continue
		}
		if math.Abs(minV-goldenMin) > montage.MinTolerance {
			images["faulty"] = img
			var b strings.Builder
			b.WriteString("Figure 9: a typical faulty mosaic due to a dropped write\n")
			fmt.Fprintf(&b, "  golden min = %.5f\n", goldenMin)
			fmt.Fprintf(&b, "  faulty min = %.5f (outside ±%.2g: detected)\n", minV, montage.MinTolerance)
			fmt.Fprintf(&b, "  dropped write target: instance %d of %d stage-4 writes\n", t, count)
			return b.String(), images, nil
		}
	}
	return "", nil, fmt.Errorf("experiments: no detected dropped-write mosaic found for Figure 9")
}
