package nyx

import (
	"fmt"
	"math"
	"slices"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/hdf5"
	"ffis/internal/stats"
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
	Sim  SimConfig // Sim and Halo are fixed by NewApp
	Halo HaloConfig
	// UseAvgDetector additionally applies the average-value method during
	// classification, turning detectable SDCs into detected outcomes
	// (the "after using the average-value-based method" variant of
	// Figure 7).
	UseAvgDetector bool

	file   []byte        // the plotfile Run writes
	meta   int           // its metadata length; the raw data (all cells) follows
	golden Catalog       // the halo finder's catalog of file
	text   string        // golden.Render()
	sums   []stats.Kahan // sums[k]: the mean's state after k·sumEvery cells
}

// sumEvery is the number of cells between two golden Kahan checkpoints.
const sumEvery = 1024

// NewApp generates the field, encodes the HDF5 image every run writes and
// runs the halo finder on the file a run writes: the golden catalog. The
// grid edge must exceed 8: halo centers keep 4 cells clear of every face.
func NewApp(sim SimConfig, halo HaloConfig) (*App, error) {
	if sim.N <= 8 {
		return nil, fmt.Errorf("nyx: grid edge %d too small (need more than 8)", sim.N)
	}
	img, err := BuildImage(sim.Generate(), sim.N)
	if err != nil {
		return nil, err
	}
	// Metadata and raw data in one buffer of the file's size.
	a := &App{Sim: sim, Halo: halo, file: img.Bytes(), meta: len(img.Meta)}
	fs := vfs.NewMemFS()
	if err := a.Run(fs); err != nil {
		return nil, err
	}
	field, n, err := ReadDataset(fs, OutputPath)
	if err != nil {
		return nil, err
	}
	a.golden = FindHalos(field, n, halo)
	if len(a.golden.Halos) == 0 {
		return nil, fmt.Errorf("nyx: configuration produced no halos (candidates=%d)", a.golden.Candidates)
	}
	a.text = a.golden.Render()
	a.sums = make([]stats.Kahan, len(field)/sumEvery+1)
	for k := 1; k < len(a.sums); k++ {
		a.sums[k] = a.sums[k-1]
		a.sums[k].Add(field[(k-1)*sumEvery : k*sumEvery])
	}
	return a, nil
}

// Golden returns the fault-free halo-finder output.
func (a *App) Golden() string { return a.text }

// Image returns a new copy of the HDF5 image Run writes, field map
// included; the caller may mutate it.
func (a *App) Image() (*hdf5.FileImage, error) {
	// BuildImage writes the cells in IEEE binary64.
	field, err := hdf5.IEEE754Double().DecodeInto(nil, a.file[a.meta:], (len(a.file)-a.meta)/8)
	if err != nil {
		return nil, err
	}
	return BuildImage(field, a.Sim.N)
}

// GoldenCatalog returns a copy of the golden catalog (for histogram
// comparisons).
func (a *App) GoldenCatalog() Catalog {
	c := a.golden
	c.Halos = slices.Clone(c.Halos)
	return c
}

// Run executes the application's I/O: it persists the prebuilt HDF5 image
// through the supplied file system, with the write sequence of
// WriteDataset. This is the phase fault injection targets.
func (a *App) Run(fs vfs.FS) error {
	if err := fs.MkdirAll("/plt00000"); err != nil {
		return err
	}
	img := hdf5.FileImage{Meta: a.file[:a.meta], Data: a.file[a.meta:]}
	return img.WriteTo(fs, OutputPath)
}

// Scratch is the halo finder's per-slot state: read buffer, decoded cells
// and Friends-of-Friends arrays. The zero value is ready; it serves one
// analysis at a time.
type Scratch struct {
	raw   []byte
	cells []float64
	fof   fof
}

// Analyze is RunHaloFinder(fs, OutputPath, a.Halo) plus Render, in sc, with
// the same reads. A file equal to the golden image yields the golden
// catalog, whose halos the caller must not modify. Otherwise, under the
// golden datatype and element count, the mean resumes from the last golden
// checkpoint before the first cell whose bytes changed.
func (a *App) Analyze(fs vfs.FS, sc *Scratch) (Catalog, string, error) {
	raw, err := vfs.ReadInto(fs, OutputPath, sc.raw)
	if err != nil {
		return Catalog{}, "", err
	}
	sc.raw = raw
	if string(raw) == string(a.file) {
		return a.golden, a.text, nil
	}
	d, cells, err := decodeField(raw, sc.cells)
	if err != nil {
		return Catalog{}, "", err
	}
	sc.cells = cells
	var sum stats.Kahan
	k := 0
	if golden := a.file[a.meta:]; d.Spec == hdf5.IEEE754Double() && len(cells)*8 == len(golden) {
		// The bytes decoded, wherever the layout message points, are
		// compared with the golden cells: identical bytes under the
		// identical datatype decode to identical cells, so the golden sum
		// of every chunk before the first changed one stands.
		got, chunk := raw[d.DataOffset:], 8*sumEvery
		for k+1 < len(a.sums) && string(got[k*chunk:(k+1)*chunk]) == string(golden[k*chunk:(k+1)*chunk]) {
			k++
		}
		sum = a.sums[k]
	}
	sum.Add(cells[k*sumEvery:])
	cat := sc.fof.find(cells, int(d.Dims[0]), a.Halo, sum.Sum/float64(len(cells)))
	return cat, cat.Render(), nil
}

// Classify implements the paper's Nyx outcome rules: bit-wise identical
// halo-finder output is benign; an HDF5 exception or unreadable output is a
// crash; an empty catalog is detected; anything else is SDC — unless the
// average-value detector is enabled and flags it, in which case it is
// detected. It analyses on a new Scratch.
func (a *App) Classify(fs vfs.FS, runErr error) classify.Outcome {
	return a.classify(fs, runErr, new(Scratch))
}

// Worker returns Run and a Classify bound to one Scratch it reuses from
// run to run (core.Workload.Worker).
func (a *App) Worker() (func(vfs.FS) error, func(vfs.FS, error) classify.Outcome) {
	sc := new(Scratch)
	return a.Run, func(fs vfs.FS, runErr error) classify.Outcome { return a.classify(fs, runErr, sc) }
}

func (a *App) classify(fs vfs.FS, runErr error, sc *Scratch) classify.Outcome {
	if runErr != nil {
		return classify.Crash
	}
	cat, out, err := a.Analyze(fs, sc)
	switch {
	case err != nil:
		return classify.Crash
	case out == a.text:
		return classify.Benign
	case len(cat.Halos) == 0:
		return classify.Detected
	case a.UseAvgDetector && DetectByAverage(cat.Mean):
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
		Worker:   a.Worker,
	}
}

// Describe returns the Table II row for Nyx.
func Describe() string {
	return "Nyx | Astrophysics | adaptive mesh refinement (AMR) based cosmological simulation | post-analysis: Friends-of-Friends halo finder on the baryon_density field"
}
