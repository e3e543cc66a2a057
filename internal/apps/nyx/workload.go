package nyx

import (
	"fmt"
	"math"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/hdf5"
	"ffis/internal/vfs"
)

// OutputPath is where the simulation deposits its plotfile.
const OutputPath = "/plt00000/baryon_density.h5"

// AvgTolerance is the relative deviation of the dataset average from 1 at
// which the average-value method flags corruption. The paper observes that
// every dropped-write SDC moves the average by at least 0.1%.
const AvgTolerance = 1e-3

// DetectByAverage implements the paper's average-value detector: under mass
// conservation the mean baryon density must be 1; a deviation beyond the
// tolerance reveals storage corruption that the halo finder alone might
// miss.
func DetectByAverage(mean float64) bool {
	return math.IsNaN(mean) || math.Abs(mean-1) > AvgTolerance
}

// App bundles the simulation and analysis configuration used in campaigns.
type App struct {
	Sim  SimConfig
	Halo HaloConfig

	field  []float64 // generated once; identical in every run
	golden string    // golden halo-finder output
	// UseAvgDetector additionally applies the average-value method during
	// classification, turning detectable SDCs into detected outcomes
	// (the "after using the average-value-based method" variant of
	// Figure 7).
	UseAvgDetector bool
}

// NewApp generates the simulation data and the golden catalog. The grid
// edge must exceed 8: halo centers keep 4 cells clear of every face.
func NewApp(sim SimConfig, halo HaloConfig) (*App, error) {
	if sim.N <= 8 {
		return nil, fmt.Errorf("nyx: grid edge %d too small (need more than 8)", sim.N)
	}
	a := &App{Sim: sim, Halo: halo}
	a.field = sim.Generate()
	cat := FindHalos(a.field, sim.N, halo)
	if len(cat.Halos) == 0 {
		return nil, fmt.Errorf("nyx: configuration produced no halos (candidates=%d)", cat.Candidates)
	}
	a.golden = cat.Render()
	return a, nil
}

// Golden returns the fault-free halo-finder output.
func (a *App) Golden() string { return a.golden }

// Image builds the HDF5 image Run writes.
func (a *App) Image() (*hdf5.FileImage, error) { return BuildImage(a.field, a.Sim.N) }

// GoldenCatalog recomputes the golden catalog (for histogram comparisons).
func (a *App) GoldenCatalog() Catalog { return FindHalos(a.field, a.Sim.N, a.Halo) }

// Run executes the application's I/O: it persists the (precomputed) field
// through the supplied file system. This is the phase fault injection
// targets.
func (a *App) Run(fs vfs.FS) error {
	if err := fs.MkdirAll("/plt00000"); err != nil {
		return err
	}
	return WriteDataset(fs, OutputPath, a.field, a.Sim.N)
}

// Classify implements the paper's Nyx outcome rules: bit-wise identical
// halo-finder output is benign; an HDF5 exception or unreadable output is a
// crash; an empty catalog is detected; anything else is SDC — unless the
// average-value detector is enabled and flags it, in which case it is
// detected.
func (a *App) Classify(fs vfs.FS, runErr error) classify.Outcome {
	if runErr != nil {
		return classify.Crash
	}
	cat, err := RunHaloFinder(fs, OutputPath, a.Halo)
	if err != nil {
		return classify.Crash
	}
	out := cat.Render()
	if out == a.golden {
		return classify.Benign
	}
	if len(cat.Halos) == 0 {
		return classify.Detected
	}
	if a.UseAvgDetector && DetectByAverage(cat.Mean) {
		return classify.Detected
	}
	return classify.SDC
}

// Workload adapts the app to the campaign runner.
func (a *App) Workload() core.Workload {
	return core.Workload{
		Name:     "nyx",
		Run:      a.Run,
		Classify: a.Classify,
	}
}

// Describe returns the Table II row for Nyx.
func Describe() string {
	return "Nyx | Astrophysics | adaptive mesh refinement (AMR) based cosmological simulation | post-analysis: Friends-of-Friends halo finder on the baryon_density field"
}
