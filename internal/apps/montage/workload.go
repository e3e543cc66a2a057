package montage

import (
	"fmt"
	"math"
	"slices"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/vfs"
)

// MinTolerance is the acceptance band around the golden "min" statistic:
// within it a changed image counts as SDC, outside it the corruption is
// detected (the paper uses a 10⁻² threshold on the min value).
const MinTolerance = 1e-2

// App is a Montage campaign target: the full pipeline with fault injection
// confined to one stage, mirroring the paper's MT1..MT4 cells.
type App struct {
	Cfg   Config
	Stage Stage

	goldenImage []byte
	goldenMin   float64
	goldenTable []byte // MT2 only: the fault-free plane-fit table
}

// NewApp prepares the golden pipeline products for the given stage.
func NewApp(cfg Config, stage Stage) (*App, error) {
	if stage < StageProject || stage > StageAdd {
		return nil, fmt.Errorf("montage: invalid stage %d", int(stage))
	}
	a := &App{Cfg: cfg, Stage: stage}
	fs := vfs.NewMemFS()
	if err := cfg.WriteRawTiles(fs); err != nil {
		return nil, err
	}
	if err := cfg.RunPipeline(fs, StageProject, StageAdd); err != nil {
		return nil, fmt.Errorf("montage: golden pipeline: %w", err)
	}
	var err error
	if a.goldenImage, err = vfs.ReadFile(fs, ImagePath); err != nil {
		return nil, err
	}
	if a.goldenMin, err = ReadMin(fs); err != nil {
		return nil, err
	}
	if stage == StageDiff {
		if a.goldenTable, err = vfs.ReadFile(fs, FitsTablePath); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// GoldenImage returns a copy of the fault-free mosaic PGM.
func (a *App) GoldenImage() []byte { return slices.Clone(a.goldenImage) }

// GoldenMin returns the fault-free min statistic.
func (a *App) GoldenMin() float64 { return a.goldenMin }

// Setup provides the campaign's fault-free preamble: raw tiles plus every
// stage before the instrumented one.
func (a *App) Setup(fs vfs.FS) error {
	if err := a.Cfg.WriteRawTiles(fs); err != nil {
		return err
	}
	if a.Stage > StageProject {
		return a.Cfg.RunPipeline(fs, StageProject, a.Stage-1)
	}
	return nil
}

// Run executes only the instrumented stage — the phase whose writes are
// fault-injected — on a fresh scratch.
func (a *App) Run(fs vfs.FS) error { return a.Cfg.runStage(fs, a.Stage, a.Cfg.newScratch()) }

// Classify is classify on a fresh scratch.
func (a *App) Classify(fs vfs.FS, runErr error) classify.Outcome {
	return a.classify(fs, runErr, a.Cfg.newScratch())
}

// Worker returns Run and Classify bound to one scratch that keeps, from
// run to run, what a changed file did not reach (core.Workload.Worker).
func (a *App) Worker() (func(vfs.FS) error, func(vfs.FS, error) classify.Outcome) {
	sc := a.Cfg.newScratch()
	return func(fs vfs.FS) error { return a.Cfg.runStage(fs, a.Stage, sc) },
		func(fs vfs.FS, runErr error) classify.Outcome { return a.classify(fs, runErr, sc) }
}

// classify finishes the pipeline fault-free and applies the paper's rules:
// identical final image → benign; missing/unbuildable products → crash;
// min statistic within tolerance of golden → SDC; otherwise detected.
// MT1–MT3 finish in memory; MT4's run wrote the image and statistics. An
// MT2 run whose plane fit masked the fault (masked) is benign without
// running the downstream stages: they would rebuild the golden image.
func (a *App) classify(fs vfs.FS, runErr error, sc *scratch) classify.Outcome {
	if runErr != nil {
		return classify.Crash
	}
	if a.masked(fs, sc) {
		return classify.Benign
	}
	img, stats, err := sc.img, "", error(nil)
	if a.Stage < StageAdd {
		img, stats, err = a.Cfg.finish(fs, a.Stage+1, sc)
	} else if img, err = vfs.ReadInto(fs, ImagePath, sc.img); err == nil {
		sc.img = img // read into the slot's buffer
	}
	if err != nil {
		return classify.Crash
	}
	// The comparison checks the size before any byte.
	if string(img) == string(a.goldenImage) {
		return classify.Benign
	}
	var minV float64
	if a.Stage < StageAdd {
		minV, err = parseMin(stats)
	} else {
		minV, err = ReadMin(fs)
	}
	if err != nil {
		return classify.Crash
	}
	if math.Abs(minV-a.goldenMin) <= MinTolerance {
		return classify.SDC
	}
	return classify.Detected
}

// masked reports whether mBgExec and mAdd would read only golden bytes
// after an MT2 run: the plane-fit table equals the golden one, every
// projection and area file still holds its Setup bytes (vfs.Unchanged on a
// clone of the post-Setup world), and neither stage's output directory
// exists. Both stages are deterministic and read nothing else, so their
// final image would equal the golden one. The table is read into the
// slot's image buffer.
func (a *App) masked(fs vfs.FS, sc *scratch) bool {
	if a.goldenTable == nil || vfs.Exists(fs, CorrDir) || vfs.Exists(fs, MosaicDir) {
		return false
	}
	for i := 0; i < a.Cfg.Tiles; i++ {
		if !vfs.Unchanged(fs, projPath(i)) || !vfs.Unchanged(fs, areaPath(i)) {
			return false
		}
	}
	table, err := vfs.ReadInto(fs, FitsTablePath, sc.img)
	if err != nil {
		return false
	}
	sc.img = table
	return string(table) == string(a.goldenTable)
}

// Workload adapts the app to the campaign runner, labelled MT1..MT4 as in
// Figure 7.
func (a *App) Workload() core.Workload {
	return core.Workload{
		Name:     fmt.Sprintf("MT%d", int(a.Stage)),
		Setup:    a.Setup,
		Run:      a.Run,
		Classify: a.Classify,
		Worker:   a.Worker,
	}
}

// Describe returns the Table II row for Montage.
func Describe() string {
	return "Montage | Astronomy | astronomical image mosaic of 10 2MASS-like tiles around m101 | post-analysis: mosaic image comparison + min-statistic window"
}
