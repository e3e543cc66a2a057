package montage

import (
	"fmt"
	"math"

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
	img, err := vfs.ReadFile(fs, ImagePath)
	if err != nil {
		return nil, err
	}
	a.goldenImage = img
	if a.goldenMin, err = ReadMin(fs); err != nil {
		return nil, err
	}
	return a, nil
}

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

// Worker returns Run and Classify bound to one scratch they share and
// reuse from run to run (core.Workload.Worker).
func (a *App) Worker() (func(vfs.FS) error, func(vfs.FS, error) classify.Outcome) {
	sc := a.Cfg.newScratch()
	return func(fs vfs.FS) error { return a.Cfg.runStage(fs, a.Stage, sc) },
		func(fs vfs.FS, runErr error) classify.Outcome { return a.classify(fs, runErr, sc) }
}

// classify finishes the pipeline fault-free and applies the paper's rules:
// identical final image → benign; missing/unbuildable products → crash;
// min statistic within tolerance of golden → SDC; otherwise detected.
func (a *App) classify(fs vfs.FS, runErr error, sc *scratch) classify.Outcome {
	if runErr != nil {
		return classify.Crash
	}
	if a.Stage < StageAdd {
		if err := a.Cfg.pipeline(fs, a.Stage+1, StageAdd, sc); err != nil {
			return classify.Crash
		}
	}
	// The image is read into the slot's buffer; the comparison checks the
	// size before any byte.
	img, err := vfs.ReadInto(fs, ImagePath, sc.img)
	if err != nil {
		return classify.Crash
	}
	sc.img = img
	if string(img) == string(a.goldenImage) {
		return classify.Benign
	}
	minV, err := ReadMin(fs)
	if err != nil {
		return classify.Crash
	}
	if math.Abs(minV-a.goldenMin) <= MinTolerance {
		return classify.SDC
	}
	return classify.Detected
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
