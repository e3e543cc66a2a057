// Repository-level benchmarks: one per table and figure of the paper's
// evaluation section, plus the ablation benches DESIGN.md calls out and
// microbenchmarks of the load-bearing substrates.
//
// Campaign benches run reduced-size campaigns per iteration and report the
// outcome rates via b.ReportMetric, so `go test -bench=. -benchmem`
// regenerates the paper's headline numbers in shape:
//
//	go test -bench=Fig7 -benchtime=1x       # the Figure 7 grid
//	go test -bench=Table3 -benchtime=1x     # the metadata campaign
package ffis

import (
	"fmt"
	"sync"
	"testing"

	"ffis/internal/apps/montage"
	"ffis/internal/apps/nyx"
	"ffis/internal/apps/qmcpack"
	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/experiments"
	"ffis/internal/fits"
	"ffis/internal/hdf5"
	"ffis/internal/metainject"
	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// runCampaign runs one campaign as a one-spec Engine grid on jobs slots
// (<= 0 selects GOMAXPROCS).
func runCampaign(jobs int, cfg core.CampaignConfig, w core.Workload) (core.CampaignResult, error) {
	grid := (&core.Engine{Jobs: jobs}).Run([]core.CampaignSpec{{Workload: w, Config: cfg}})
	return grid[0].Result, grid[0].Err
}

// benchOpts shrinks campaigns so each bench iteration stays around a
// second; cmd/experiments runs the full paper scale.
func benchOpts() experiments.Options {
	return experiments.Options{
		Runs:       24,
		Seed:       2021,
		NyxN:       24,
		MetaStride: 5,
	}
}

func reportTally(b *testing.B, t classify.Tally) {
	b.ReportMetric(100*t.Rate(classify.Benign).P(), "benign%")
	b.ReportMetric(100*t.Rate(classify.SDC).P(), "SDC%")
	b.ReportMetric(100*t.Rate(classify.Detected).P(), "detected%")
	b.ReportMetric(100*t.Rate(classify.Crash).P(), "crash%")
}

// --- Table I ---------------------------------------------------------------

func BenchmarkTable1FaultModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1() == "" {
			b.Fatal("empty table")
		}
	}
}

// --- Table III: metadata byte campaign --------------------------------------

func BenchmarkTable3MetadataCampaign(b *testing.B) {
	var last *metainject.Result
	for i := 0; i < b.N; i++ {
		_, res, err := experiments.Table3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	reportTally(b, last.Tally)
}

// --- Table IV: directed field study -----------------------------------------

func BenchmarkTable4FieldStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, effects, err := experiments.Table4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if len(effects) != 6 {
			b.Fatalf("%d effects", len(effects))
		}
	}
}

// --- Figures 5, 6, 8, 9 ------------------------------------------------------

func BenchmarkFig5FieldVisuals(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig5(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6MantissaSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8MassHistogram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9MontageDropped(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig9(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 7: the main characterization grid -------------------------------

// Workload construction is expensive (Monte Carlo, golden pipelines); build
// each cell once and share it across bench iterations.
var (
	workloadOnce  sync.Once
	workloadCache map[string]core.Workload
)

func cachedWorkload(b *testing.B, cell string) core.Workload {
	workloadOnce.Do(func() {
		workloadCache = map[string]core.Workload{}
		for _, c := range experiments.Fig7Cells {
			w, err := experiments.NewWorkload(c, benchOpts())
			if err != nil {
				b.Fatalf("workload %s: %v", c, err)
			}
			workloadCache[c] = w
		}
	})
	return workloadCache[cell]
}

func benchCell(b *testing.B, cell string, model core.Model) {
	w := cachedWorkload(b, cell)
	opts := benchOpts()
	var last classify.Tally
	for i := 0; i < b.N; i++ {
		res, err := runCampaign(0, core.CampaignConfig{
			Fault: core.Config{Model: model},
			Runs:  opts.Runs,
			Seed:  opts.Seed + uint64(i),
		}, w)
		if err != nil {
			b.Fatal(err)
		}
		last = res.Tally
	}
	reportTally(b, last)
}

func BenchmarkFig7_Nyx_BitFlip(b *testing.B)      { benchCell(b, "nyx", core.BitFlip) }
func BenchmarkFig7_Nyx_ShornWrite(b *testing.B)   { benchCell(b, "nyx", core.ShornWrite) }
func BenchmarkFig7_Nyx_DroppedWrite(b *testing.B) { benchCell(b, "nyx", core.DroppedWrite) }

func BenchmarkFig7_QMC_BitFlip(b *testing.B)      { benchCell(b, "qmcpack", core.BitFlip) }
func BenchmarkFig7_QMC_ShornWrite(b *testing.B)   { benchCell(b, "qmcpack", core.ShornWrite) }
func BenchmarkFig7_QMC_DroppedWrite(b *testing.B) { benchCell(b, "qmcpack", core.DroppedWrite) }

func BenchmarkFig7_MT1_BitFlip(b *testing.B)      { benchCell(b, "MT1", core.BitFlip) }
func BenchmarkFig7_MT1_ShornWrite(b *testing.B)   { benchCell(b, "MT1", core.ShornWrite) }
func BenchmarkFig7_MT1_DroppedWrite(b *testing.B) { benchCell(b, "MT1", core.DroppedWrite) }

func BenchmarkFig7_MT2_BitFlip(b *testing.B)      { benchCell(b, "MT2", core.BitFlip) }
func BenchmarkFig7_MT2_ShornWrite(b *testing.B)   { benchCell(b, "MT2", core.ShornWrite) }
func BenchmarkFig7_MT2_DroppedWrite(b *testing.B) { benchCell(b, "MT2", core.DroppedWrite) }

func BenchmarkFig7_MT3_BitFlip(b *testing.B)      { benchCell(b, "MT3", core.BitFlip) }
func BenchmarkFig7_MT3_ShornWrite(b *testing.B)   { benchCell(b, "MT3", core.ShornWrite) }
func BenchmarkFig7_MT3_DroppedWrite(b *testing.B) { benchCell(b, "MT3", core.DroppedWrite) }

func BenchmarkFig7_MT4_BitFlip(b *testing.B)      { benchCell(b, "MT4", core.BitFlip) }
func BenchmarkFig7_MT4_ShornWrite(b *testing.B)   { benchCell(b, "MT4", core.ShornWrite) }
func BenchmarkFig7_MT4_DroppedWrite(b *testing.B) { benchCell(b, "MT4", core.DroppedWrite) }

// --- Ablations (DESIGN.md §5) ------------------------------------------------

// BenchmarkAblationFlipWidth compares the paper's 2-bit flips against the
// 4-bit variant of footnote 3 ("the SDC rate remains minimal for Nyx").
func BenchmarkAblationFlipWidth(b *testing.B) {
	for _, width := range []int{2, 4} {
		width := width
		b.Run(map[int]string{2: "2bit", 4: "4bit"}[width], func(b *testing.B) {
			w := cachedWorkload(b, "nyx")
			var last classify.Tally
			for i := 0; i < b.N; i++ {
				res, err := runCampaign(0, core.CampaignConfig{
					Fault: core.Config{Model: core.BitFlip, Feature: core.Feature{FlipBits: width}},
					Runs:  benchOpts().Runs,
					Seed:  99,
				}, w)
				if err != nil {
					b.Fatal(err)
				}
				last = res.Tally
			}
			reportTally(b, last)
		})
	}
}

// BenchmarkAblationShornFraction compares the 3/8 and 7/8 shorn-write
// variants of Table I.
func BenchmarkAblationShornFraction(b *testing.B) {
	for _, keep := range []int{3, 7} {
		keep := keep
		b.Run(map[int]string{3: "keep3of8", 7: "keep7of8"}[keep], func(b *testing.B) {
			w := cachedWorkload(b, "qmcpack")
			var last classify.Tally
			for i := 0; i < b.N; i++ {
				res, err := runCampaign(0, core.CampaignConfig{
					Fault: core.Config{Model: core.ShornWrite, Feature: core.Feature{ShornKeepNum: keep, ShornKeepDen: 8}},
					Runs:  benchOpts().Runs,
					Seed:  99,
				}, w)
				if err != nil {
					b.Fatal(err)
				}
				last = res.Tally
			}
			reportTally(b, last)
		})
	}
}

// BenchmarkAblationHaloThreshold sweeps the halo candidate threshold around
// Nyx's 81.66 constant.
func BenchmarkAblationHaloThreshold(b *testing.B) {
	sim := nyx.DefaultSim()
	sim.N = 24
	sim.NumHalos = 4
	field := sim.Generate()
	for _, factor := range []float64{40, 81.66, 120} {
		factor := factor
		b.Run(map[float64]string{40: "40x", 81.66: "81.66x", 120: "120x"}[factor], func(b *testing.B) {
			var halos int
			for i := 0; i < b.N; i++ {
				cat := nyx.FindHalos(field, sim.N, nyx.HaloConfig{ThresholdFactor: factor, MinCells: 10})
				halos = len(cat.Halos)
			}
			b.ReportMetric(float64(halos), "halos")
		})
	}
}

// BenchmarkAblationAvgTolerance sweeps the average-value detector tolerance
// around the paper's 0.1% and reports how many dropped-write runs it flags.
func BenchmarkAblationAvgTolerance(b *testing.B) {
	w := cachedWorkload(b, "nyx")
	sig := core.Config{Model: core.DroppedWrite}.Signature()
	count, err := (&core.Engine{}).Profile(core.CampaignSpec{Workload: w, Config: core.CampaignConfig{Fault: core.Config{Model: core.DroppedWrite}}})
	if err != nil {
		b.Fatal(err)
	}
	for _, tol := range []float64{1e-4, 1e-3, 1e-2} {
		tol := tol
		b.Run(map[float64]string{1e-4: "0.01%", 1e-3: "0.1%", 1e-2: "1%"}[tol], func(b *testing.B) {
			flagged, total := 0, 0
			for i := 0; i < b.N; i++ {
				rng := stats.NewRNG(uint64(i) + 5)
				fs := vfs.NewMemFS()
				inj := core.NewInjector(sig, int64(rng.Intn(int(count))), rng)
				if err := w.Run(inj.Wrap(fs)); err != nil {
					continue
				}
				cat, err := nyx.RunHaloFinder(fs, nyx.OutputPath, nyx.DefaultHalo())
				if err != nil {
					continue
				}
				total++
				if dev := cat.Mean - 1; dev > tol || dev < -tol {
					flagged++
				}
			}
			if total > 0 {
				b.ReportMetric(100*float64(flagged)/float64(total), "flagged%")
			}
		})
	}
}

// --- Campaign engine ---------------------------------------------------------

// BenchmarkFig7GridEngine runs the Figure 7 grid on the campaign engine:
// Setup once per cell, COW clone per run, one shared pool, one profiling
// pass per cell.
func BenchmarkFig7GridEngine(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig7(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignCOWvsFresh isolates the world-lifecycle cost on one cell
// with a heavyweight Setup (MT4's preamble runs the first three Montage
// stages): the same campaign with per-run COW clones vs per-run rebuilds of
// a world that cannot be cloned.
func BenchmarkCampaignCOWvsFresh(b *testing.B) {
	for _, fresh := range []bool{false, true} {
		fresh := fresh
		b.Run(map[bool]string{false: "cow", true: "fresh"}[fresh], func(b *testing.B) {
			w := cachedWorkload(b, "MT4")
			if fresh {
				w.NewFS = func() (vfs.FS, error) { return unclonableFS{vfs.NewMemFS()}, nil }
			}
			for i := 0; i < b.N; i++ {
				_, err := runCampaign(0, core.CampaignConfig{
					Fault: core.Config{Model: core.BitFlip},
					Runs:  benchOpts().Runs,
					Seed:  2021,
				}, w)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// unclonableFS hides MemFS's Cloner implementation, so a campaign on it
// rebuilds its world (NewFS + Setup) for every run.
type unclonableFS struct{ vfs.FS }

// --- Substrate microbenchmarks ------------------------------------------------

// BenchmarkMemFSClone measures the COW snapshot primitive itself on a
// Montage-sized world (raw tiles + three stages of intermediates).
func BenchmarkMemFSClone(b *testing.B) {
	fs := vfs.NewMemFS()
	cfg := montage.DefaultConfig()
	if err := cfg.WriteRawTiles(fs); err != nil {
		b.Fatal(err)
	}
	if err := cfg.RunPipeline(fs, montage.StageProject, montage.StageBg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fs.Clone() == nil {
			b.Fatal("nil clone")
		}
	}
}

// BenchmarkCloneFirstWrite measures the full COW divergence cost: Clone a
// world holding one large file, then perform a single 4 KiB first write on
// the clone. With extent-backed storage the write copies only the touched
// block, so ns/op must stay flat as the file grows — O(bytes written), not
// O(file size).
func BenchmarkCloneFirstWrite(b *testing.B) {
	for _, mib := range []int{1, 16, 64} {
		mib := mib
		b.Run(fmt.Sprintf("%dMiB", mib), func(b *testing.B) {
			fs := vfs.NewMemFS()
			if err := vfs.WriteFile(fs, "/big", make([]byte, mib<<20)); err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 4096)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := fs.Clone()
				f, err := c.Append("/big")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := f.WriteAt(buf, 0); err != nil {
					b.Fatal(err)
				}
				if err := f.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMountFSClone measures snapshotting a five-mount tiered world.
func BenchmarkMountFSClone(b *testing.B) {
	m := vfs.NewMountFS(vfs.NewMemFS())
	for _, dir := range []string{"/raw", "/proj", "/diff", "/corr", "/mosaic"} {
		if err := m.Mount(dir, vfs.NewMemFS()); err != nil {
			b.Fatal(err)
		}
		if err := vfs.WriteFile(m, dir+"/data", make([]byte, 64<<10)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Clone(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMemFSWrite4K(b *testing.B) {
	fs := vfs.NewMemFS()
	f, err := fs.Create("/bench")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.WriteAt(buf, int64(i%1024)*4096); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAppend writes a 1 MiB file sequentially in chunk-sized writes per
// iteration — the pattern of fits.Write and the HDF5 writer. With geometric
// tail growth B/op stays near twice the file size.
func benchAppend(b *testing.B, fs vfs.FS, chunk int) {
	buf := make([]byte, chunk)
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := fs.Create("/bench")
		if err != nil {
			b.Fatal(err)
		}
		for off := 0; off < 1<<20; off += chunk {
			if _, err := f.Write(buf[:min(chunk, 1<<20-off)]); err != nil {
				b.Fatal(err)
			}
		}
		f.Close()
	}
}

func BenchmarkMemFSAppend2880(b *testing.B)  { benchAppend(b, vfs.NewMemFS(), fits.BlockSize) }
func BenchmarkObjectFSAppend4K(b *testing.B) { benchAppend(b, vfs.NewObjectFS(), 4096) }

// BenchmarkFITSEncodeDecode round-trips one 64×64 Montage tile through
// MemFS: fits.Write, then fits.Read into one reused image, as a pipeline
// stage does across its tiles.
func BenchmarkFITSEncodeDecode(b *testing.B) {
	cfg := montage.DefaultConfig()
	im := cfg.Observe(cfg.TileSpecs()[0], 0)
	fs := vfs.NewMemFS()
	dst := new(fits.Image)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fits.Write(fs, "/t.fits", im); err != nil {
			b.Fatal(err)
		}
		if _, err := fits.Read(fs, "/t.fits", dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMontageMT2RunClassify is one MT2 campaign run without a fault:
// mDiffExec on a clone of the post-Setup world, then the fault-free rest of
// the pipeline and the classification.
func BenchmarkMontageMT2RunClassify(b *testing.B) {
	app, err := montage.NewApp(montage.DefaultConfig(), montage.StageDiff)
	if err != nil {
		b.Fatal(err)
	}
	world := vfs.NewMemFS()
	if err := app.Setup(world); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := world.Clone()
		if got := app.Classify(fs, app.Run(fs)); got != classify.Benign {
			b.Fatalf("fault-free run classified %s", got)
		}
	}
}

// BenchmarkMontageClassify is one MT1, MT2 or MT3 campaign run whose
// stage output takes one bit flip: the stage on a clone of the post-Setup
// world, the flip of the lowest bit of the middle byte of a file the stage
// wrote, and the classification. MT2 classifies through a wrapper that
// hides the *MemFS, so its plane-fit shortcut cannot answer and the
// downstream stages run.
func BenchmarkMontageClassify(b *testing.B) {
	for _, tc := range []struct {
		stage montage.Stage
		path  string
	}{
		{montage.StageProject, montage.ProjDir + "/p04.fits"},
		{montage.StageDiff, montage.FitsTablePath},
		{montage.StageBg, montage.CorrDir + "/c04.fits"},
	} {
		b.Run(fmt.Sprintf("MT%d", int(tc.stage)), func(b *testing.B) {
			app, err := montage.NewApp(montage.DefaultConfig(), tc.stage)
			if err != nil {
				b.Fatal(err)
			}
			world := vfs.NewMemFS()
			if err := app.Setup(world); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fs := world.Clone()
				runErr := app.Run(fs)
				raw, err := vfs.ReadFile(fs, tc.path)
				if err != nil {
					b.Fatal(err)
				}
				f, err := fs.Append(tc.path)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := f.WriteAt([]byte{raw[len(raw)/2] ^ 1}, int64(len(raw)/2)); err != nil {
					b.Fatal(err)
				}
				f.Close()
				var view vfs.FS = fs
				if tc.stage == montage.StageDiff {
					view = unclonableFS{fs}
				}
				if got := app.Classify(view, runErr); got == classify.Crash {
					b.Fatalf("one flipped bit classified %s", got)
				}
			}
		})
	}
}

// BenchmarkMontageWorker is the warm-slot path every campaign takes: one
// App.Worker pair serves a fixed sequence of runs, each on a clone of the
// post-Setup world that draws its blocks from one list and is released
// after classification, as the campaign Runner drives them. Run k of the
// 30-run sequence injects a bit flip, shorn write or dropped write (k mod
// 3) at a target drawn from a seed-pinned stream over the stage's
// profiled write count; the sequence repeats.
func BenchmarkMontageWorker(b *testing.B) {
	models := []core.Model{core.BitFlip, core.ShornWrite, core.DroppedWrite}
	for _, stage := range montage.Stages() {
		b.Run(fmt.Sprintf("MT%d", int(stage)), func(b *testing.B) {
			app, err := montage.NewApp(montage.DefaultConfig(), stage)
			if err != nil {
				b.Fatal(err)
			}
			world := vfs.NewMemFS()
			if err := app.Setup(world); err != nil {
				b.Fatal(err)
			}
			type fault struct {
				sig    core.Signature
				target int64
			}
			var faults []fault
			draw := stats.NewRNG(2021)
			for k := 0; k < 30; k++ {
				sig := core.Config{Model: models[k%len(models)]}.Signature()
				count := core.Disarmed(sig)
				if err := app.Run(count.Wrap(world.Clone())); err != nil {
					b.Fatal(err)
				}
				faults = append(faults, fault{sig, draw.Int64n(count.Count())})
			}
			run, classify := app.Worker()
			var list vfs.BlockList
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := faults[i%len(faults)]
				fs := world.Clone()
				fs.Attach(&list)
				inj := core.NewInjector(f.sig, f.target, stats.NewRNG(uint64(i%len(faults))))
				classify(fs, run(inj.Wrap(fs)))
				fs.Release()
			}
		})
	}
}

// BenchmarkQMCPACKClassify is one standard QMCPACK campaign run whose DMC
// file takes one bit flip: the scalar writes on a clone of an empty world,
// the flip of a low bit in a digit mid-file, and the QMCA classification.
func BenchmarkQMCPACKClassify(b *testing.B) {
	app, err := qmcpack.NewApp(qmcpack.DefaultQMC())
	if err != nil {
		b.Fatal(err)
	}
	world := vfs.NewMemFS()
	if err := app.Run(world); err != nil {
		b.Fatal(err)
	}
	raw, err := vfs.ReadFile(world, qmcpack.DMCPath)
	if err != nil {
		b.Fatal(err)
	}
	off := len(raw) / 2
	for raw[off] < '1' || raw[off] > '8' {
		off++
	}
	world = vfs.NewMemFS()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := world.Clone()
		runErr := app.Run(fs)
		f, err := fs.Append(qmcpack.DMCPath)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{raw[off] ^ 1}, int64(off)); err != nil {
			b.Fatal(err)
		}
		f.Close()
		if got := app.Classify(fs, runErr); got == classify.Benign || got == classify.Crash {
			b.Fatalf("one flipped digit classified %s", got)
		}
	}
}

// BenchmarkNyxClassify is one standard Nyx campaign run whose plotfile
// takes one bit flip: the HDF5 writes on a clone of an empty world, the
// flip of the lowest bit of a cell in the middle of the raw data, and the
// classification, by App.Classify (a new scratch per run) and by a Worker
// pair (one scratch for every run).
func BenchmarkNyxClassify(b *testing.B) {
	sim := nyx.DefaultSim()
	sim.N, sim.NumHalos = 24, 3 // the campaigns' 24³ world
	app, err := nyx.NewApp(sim, nyx.DefaultHalo())
	if err != nil {
		b.Fatal(err)
	}
	img, err := app.Image()
	if err != nil {
		b.Fatal(err)
	}
	off := int64(len(img.Meta) + len(img.Data)/2)
	bit := []byte{img.Data[len(img.Data)/2] ^ 1}
	world := vfs.NewMemFS()
	run, workerClassify := app.Worker()
	for _, tc := range []struct {
		name     string
		classify func(vfs.FS, error) classify.Outcome
	}{{"Classify", app.Classify}, {"Worker", workerClassify}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fs := world.Clone()
				runErr := run(fs)
				f, err := fs.Append(nyx.OutputPath)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := f.WriteAt(bit, off); err != nil {
					b.Fatal(err)
				}
				f.Close()
				if got := tc.classify(fs, runErr); got == classify.Crash {
					b.Fatalf("one flipped bit classified %s", got)
				}
			}
		})
	}
}

func BenchmarkInjectorOverheadDisarmed(b *testing.B) {
	fs := core.Disarmed(core.Config{Model: core.BitFlip}.Signature()).Wrap(vfs.NewMemFS())
	f, err := fs.Create("/bench")
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.WriteAt(buf, int64(i%1024)*4096); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHDF5WriteRead(b *testing.B) {
	sim := nyx.DefaultSim()
	sim.N = 24
	sim.NumHalos = 4
	field := sim.Generate()
	b.SetBytes(int64(len(field) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := vfs.NewMemFS()
		fs.MkdirAll("/plt00000")
		if err := nyx.WriteDataset(fs, nyx.OutputPath, field, sim.N); err != nil {
			b.Fatal(err)
		}
		if _, _, err := nyx.ReadDataset(fs, nyx.OutputPath); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFloatDecodeGeneric(b *testing.B) {
	spec := hdf5.IEEE754Single() // non-fast-path geometry
	raw := spec.EncodeSlice(make([]float64, 1024))
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spec.DecodeInto(nil, raw, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHaloFinder(b *testing.B) {
	sim := nyx.DefaultSim()
	sim.N = 32
	sim.NumHalos = 6
	field := sim.Generate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cat := nyx.FindHalos(field, sim.N, nyx.DefaultHalo())
		if len(cat.Halos) == 0 {
			b.Fatal("no halos")
		}
	}
}

// BenchmarkQMCGolden builds the QMCPACK world's golden: the whole VMC+DMC
// simulation and its QMCA analysis, which every QMCPACK campaign set-up
// pays once.
func BenchmarkQMCGolden(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := qmcpack.NewApp(qmcpack.DefaultQMC()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMontagePipeline(b *testing.B) {
	cfg := montage.DefaultConfig()
	cfg.Tiles = 6
	cfg.TileW, cfg.TileH = 48, 48
	cfg.MosaicW, cfg.MosaicH = 110, 110
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs := vfs.NewMemFS()
		if err := cfg.WriteRawTiles(fs); err != nil {
			b.Fatal(err)
		}
		if err := cfg.RunPipeline(fs, montage.StageProject, montage.StageAdd); err != nil {
			b.Fatal(err)
		}
	}
}
