package nyx

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// runCampaign runs one campaign as a one-spec Engine grid on jobs slots
// (<= 0 selects GOMAXPROCS).
func runCampaign(jobs int, cfg core.CampaignConfig, w core.Workload) (core.CampaignResult, error) {
	grid := (&core.Engine{Jobs: jobs}).Run([]core.CampaignSpec{{Workload: w, Config: cfg}})
	return grid[0].Result, grid[0].Err
}

func smallSim() SimConfig {
	c := DefaultSim()
	c.N = 24
	c.NumHalos = 4
	return c
}

func TestGenerateMeanIsOne(t *testing.T) {
	field := smallSim().Generate()
	if m := stats.Mean(field); math.Abs(m-1) > 1e-12 {
		t.Fatalf("mean = %v, want exactly 1 (mass conservation)", m)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := smallSim().Generate()
	b := smallSim().Generate()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("field diverges at %d", i)
		}
	}
	c := smallSim()
	c.Seed++
	d := c.Generate()
	same := 0
	for i := range a {
		if a[i] == d[i] {
			same++
		}
	}
	if same > len(a)/100 {
		t.Fatalf("different seeds share %d/%d cells", same, len(a))
	}
}

func TestGenerateHasHaloPeaks(t *testing.T) {
	field := smallSim().Generate()
	if hi := slices.Max(field); hi < 82 {
		t.Fatalf("max density %v below halo threshold 81.66", hi)
	}
}

func TestFindHalosOnGolden(t *testing.T) {
	cfg := smallSim()
	field := cfg.Generate()
	cat := FindHalos(field, cfg.N, DefaultHalo())
	if len(cat.Halos) == 0 {
		t.Fatal("no halos found in golden field")
	}
	if cat.Candidates < cat.Halos[0].Cells {
		t.Fatal("candidate census inconsistent")
	}
	if math.Abs(cat.Mean-1) > 1e-12 {
		t.Fatalf("catalog mean = %v", cat.Mean)
	}
	// Halos sorted by descending mass.
	for i := 1; i < len(cat.Halos); i++ {
		if cat.Halos[i].Mass > cat.Halos[i-1].Mass {
			t.Fatal("halos not sorted by mass")
		}
	}
	// Centers within grid bounds.
	for _, h := range cat.Halos {
		for _, c := range h.Center {
			if c < 0 || c >= float64(cfg.N) {
				t.Fatalf("center out of bounds: %v", h.Center)
			}
		}
	}
}

func TestFindHalosEmptyOnFlatField(t *testing.T) {
	field := make([]float64, 8*8*8)
	for i := range field {
		field[i] = 1
	}
	cat := FindHalos(field, 8, DefaultHalo())
	if len(cat.Halos) != 0 || cat.Candidates != 0 {
		t.Fatalf("flat field produced candidates: %+v", cat)
	}
}

func TestFindHalosNaNMean(t *testing.T) {
	field := make([]float64, 8*8*8)
	field[0] = math.NaN()
	cat := FindHalos(field, 8, DefaultHalo())
	if len(cat.Halos) != 0 {
		t.Fatal("NaN-poisoned field produced halos")
	}
}

func TestFindHalosMassConservesCandidates(t *testing.T) {
	// Property: total halo mass never exceeds total candidate mass, and
	// member cells never exceed candidates.
	f := func(seed uint64) bool {
		cfg := smallSim()
		cfg.Seed = seed
		field := cfg.Generate()
		cat := FindHalos(field, cfg.N, DefaultHalo())
		cells := 0
		for _, h := range cat.Halos {
			cells += h.Cells
			if h.Cells < DefaultHalo().MinCells {
				return false
			}
		}
		return cells <= cat.Candidates
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestFoFMergesTouchingClusters(t *testing.T) {
	// Two overlapping high-density boxes must form one halo, not two.
	n := 16
	field := make([]float64, n*n*n)
	for i := range field {
		field[i] = 0.5
	}
	put := func(x, y, z int, v float64) { field[(z*n+y)*n+x] = v }
	for x := 2; x < 8; x++ {
		put(x, 4, 4, 500)
	}
	for x := 7; x < 13; x++ {
		put(x, 4, 4, 500)
	}
	cat := FindHalos(field, n, HaloConfig{ThresholdFactor: 81.66, MinCells: 5})
	if len(cat.Halos) != 1 {
		t.Fatalf("found %d halos, want 1 merged", len(cat.Halos))
	}
	if cat.Halos[0].Cells != 11 {
		t.Fatalf("merged halo has %d cells, want 11", cat.Halos[0].Cells)
	}
}

func TestRenderStableAndSensitive(t *testing.T) {
	cfg := smallSim()
	field := cfg.Generate()
	a := FindHalos(field, cfg.N, DefaultHalo()).Render()
	b := FindHalos(field, cfg.N, DefaultHalo()).Render()
	if a != b {
		t.Fatal("render not deterministic")
	}
	if !strings.Contains(a, "# NVB integral 24") || !strings.Contains(a, "nhalos") {
		t.Fatalf("render format:\n%s", a)
	}
	// A 0.2% mass deficit (one dropped 4 KiB block) must change the
	// rendered integral.
	faulty := append([]float64(nil), field...)
	for i := 0; i < 512; i++ {
		faulty[i] = 0
	}
	if FindHalos(faulty, cfg.N, DefaultHalo()).Render() == a {
		t.Fatal("dropped-block corruption invisible in rendered output")
	}
	// A last-bit flip of one background cell must NOT change it.
	tweaked := append([]float64(nil), field...)
	tweaked[7] = math.Nextafter(tweaked[7], 2)
	if FindHalos(tweaked, cfg.N, DefaultHalo()).Render() != a {
		t.Fatal("one-ulp perturbation visible in rendered output")
	}
}

func TestWriteReadDatasetRoundTrip(t *testing.T) {
	fs := vfs.NewMemFS()
	cfg := smallSim()
	field := cfg.Generate()
	if err := WriteDataset(fs, "/d.h5", field, cfg.N); err != nil {
		t.Fatal(err)
	}
	got, n, err := ReadDataset(fs, "/d.h5")
	if err != nil {
		t.Fatal(err)
	}
	if n != cfg.N {
		t.Fatalf("n = %d", n)
	}
	for i := range field {
		if got[i] != field[i] {
			t.Fatalf("value %d differs", i)
		}
	}
}

func TestAppGoldenClassifiesBenign(t *testing.T) {
	app, err := NewApp(smallSim(), DefaultHalo())
	if err != nil {
		t.Fatal(err)
	}
	fs := vfs.NewMemFS()
	if err := app.Run(fs); err != nil {
		t.Fatal(err)
	}
	if got := app.Classify(fs, nil); got != classify.Benign {
		t.Fatalf("golden run classified %s", got)
	}
}

// A grid edge of 8 or less leaves no room for halo centers; NewApp must
// refuse it rather than panic inside Generate.
func TestNewAppRejectsTinyGrid(t *testing.T) {
	sim := smallSim()
	sim.N = 4
	if _, err := NewApp(sim, DefaultHalo()); err == nil || !strings.Contains(err.Error(), "too small") {
		t.Fatalf("NewApp with N=4: got %v, want a too-small error", err)
	}
}

func TestAppClassifyCrashOnRunError(t *testing.T) {
	app, err := NewApp(smallSim(), DefaultHalo())
	if err != nil {
		t.Fatal(err)
	}
	if got := app.Classify(vfs.NewMemFS(), errForTest); got != classify.Crash {
		t.Fatalf("run error classified %s", got)
	}
}

var errForTest = &vfs.PathError{Op: "write", Path: "/x", Err: vfs.ErrClosed}

func TestAppClassifyCrashOnMissingOutput(t *testing.T) {
	app, err := NewApp(smallSim(), DefaultHalo())
	if err != nil {
		t.Fatal(err)
	}
	if got := app.Classify(vfs.NewMemFS(), nil); got != classify.Crash {
		t.Fatalf("missing output classified %s", got)
	}
}

func TestDetectByAverage(t *testing.T) {
	if DetectByAverage(1.0) {
		t.Error("exact mean flagged")
	}
	if DetectByAverage(1.0005) {
		t.Error("within-tolerance mean flagged")
	}
	if !DetectByAverage(0.9983) {
		t.Error("paper's 0.9983 example not flagged")
	}
	if !DetectByAverage(4096) {
		t.Error("power-of-two scaling not flagged")
	}
	if !DetectByAverage(math.NaN()) {
		t.Error("NaN mean not flagged")
	}
}

func TestDroppedWriteCampaignIsAllSDC(t *testing.T) {
	// The Figure 7 Nyx/DW cell: every dropped write zeroes a 4 KiB block
	// of density data, shifting the mass integral — 100% SDC.
	app, err := NewApp(smallSim(), DefaultHalo())
	if err != nil {
		t.Fatal(err)
	}
	res, err := runCampaign(0, core.CampaignConfig{
		Fault: core.Config{Model: core.DroppedWrite},
		Runs:  12,
		Seed:  99,
	}, app.Workload())
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Count(classify.Benign) != 0 {
		t.Fatalf("dropped writes produced benign runs: %s", res.Tally.String())
	}
	sdcPlusCrash := res.Tally.Count(classify.SDC) + res.Tally.Count(classify.Crash) + res.Tally.Count(classify.Detected)
	if sdcPlusCrash != 12 {
		t.Fatalf("unexpected tally: %s", res.Tally.String())
	}
}

func TestDroppedWriteDetectedByAverage(t *testing.T) {
	// With the average-value method every dropped-write SDC becomes
	// detected (the paper's recommendation).
	app, err := NewApp(smallSim(), DefaultHalo())
	if err != nil {
		t.Fatal(err)
	}
	app.UseAvgDetector = true
	res, err := runCampaign(0, core.CampaignConfig{
		Fault: core.Config{Model: core.DroppedWrite},
		Runs:  12,
		Seed:  99,
	}, app.Workload())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Tally.Count(classify.SDC); got != 0 {
		t.Fatalf("avg detector missed %d SDCs: %s", got, res.Tally.String())
	}
}

func TestBitFlipCampaignMostlyBenign(t *testing.T) {
	app, err := NewApp(smallSim(), DefaultHalo())
	if err != nil {
		t.Fatal(err)
	}
	res, err := runCampaign(0, core.CampaignConfig{
		Fault: core.Config{Model: core.BitFlip},
		Runs:  40,
		Seed:  7,
	}, app.Workload())
	if err != nil {
		t.Fatal(err)
	}
	if benign := res.Tally.Rate(classify.Benign).P(); benign < 0.5 {
		t.Fatalf("bit-flip benign rate = %.2f, want Nyx-like dominance: %s",
			benign, res.Tally.String())
	}
}

func TestSlicePGM(t *testing.T) {
	cfg := smallSim()
	field := cfg.Generate()
	img := SlicePGM(field, cfg.N, cfg.N/2)
	if !strings.HasPrefix(string(img), "P5\n24 24\n255\n") {
		t.Fatalf("PGM header: %q", img[:20])
	}
	wantLen := len("P5\n24 24\n255\n") + 24*24
	if len(img) != wantLen {
		t.Fatalf("PGM length = %d, want %d", len(img), wantLen)
	}
}

func TestCandidateCensusDropsUnderScaling(t *testing.T) {
	cfg := smallSim()
	field := cfg.Generate()
	cat := FindHalos(field, cfg.N, DefaultHalo())
	center := cat.Halos[0].Center
	orig := CandidateCensus(field, cfg.N, DefaultHalo(), center, 4)
	if orig == 0 {
		t.Fatal("no candidates near largest halo")
	}
	// Simulate a mantissa-size-style corruption: non-halo structure
	// flattened, halo contrast squashed.
	squashed := make([]float64, len(field))
	for i, v := range field {
		squashed[i] = math.Sqrt(v) // compress dynamic range
	}
	after := CandidateCensus(squashed, cfg.N, DefaultHalo(), center, 4)
	if after >= orig {
		t.Fatalf("census did not drop: %d -> %d", orig, after)
	}
}

func TestMassHistogram(t *testing.T) {
	cfg := smallSim()
	field := cfg.Generate()
	cat := FindHalos(field, cfg.N, DefaultHalo())
	h := cat.MassHistogram(0, 1e5, 20)
	total := h.Under + h.Over
	for _, c := range h.Counts {
		total += c
	}
	if total != len(cat.Halos) {
		t.Fatalf("histogram total = %d, want %d", total, len(cat.Halos))
	}
}

func TestDescribe(t *testing.T) {
	if !strings.Contains(Describe(), "Nyx") {
		t.Fatal("describe missing app name")
	}
}
