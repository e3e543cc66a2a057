package montage

import (
	"math"
	"strings"
	"testing"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/fits"
	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// runCampaign runs one campaign as a one-spec Engine grid on jobs slots
// (<= 0 selects GOMAXPROCS).
func runCampaign(jobs int, cfg core.CampaignConfig, w core.Workload) (core.CampaignResult, error) {
	grid := (&core.Engine{Jobs: jobs}).Run([]core.CampaignSpec{{Workload: w, Config: cfg}})
	return grid[0].Result, grid[0].Err
}

func smallConfig() Config {
	c := DefaultConfig()
	c.Tiles = 6
	c.TileW, c.TileH = 48, 48
	c.MosaicW, c.MosaicH = 110, 110
	return c
}

func TestTileSpecsDeterministicAndInBounds(t *testing.T) {
	cfg := smallConfig()
	a := cfg.TileSpecs()
	b := cfg.TileSpecs()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("tile specs not deterministic")
		}
		if a[i].X0 < 0 || a[i].X0 > float64(cfg.MosaicW-cfg.TileW) {
			t.Fatalf("tile %d X0 out of bounds: %v", i, a[i].X0)
		}
		if a[i].Y0 < 0 || a[i].Y0 > float64(cfg.MosaicH-cfg.TileH) {
			t.Fatalf("tile %d Y0 out of bounds: %v", i, a[i].Y0)
		}
	}
}

func TestObserveDeterministic(t *testing.T) {
	cfg := smallConfig()
	spec := cfg.TileSpecs()[0]
	a := cfg.Observe(spec, 0)
	b := cfg.Observe(spec, 0)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("observation not deterministic")
		}
	}
	c := cfg.Observe(spec, 1)
	same := 0
	for i := range a.Data {
		if a.Data[i] == c.Data[i] {
			same++
		}
	}
	if same > len(a.Data)/10 {
		t.Fatal("different tiles share noise")
	}
}

func TestFullPipelineProducesMosaic(t *testing.T) {
	cfg := smallConfig()
	fs := vfs.NewMemFS()
	if err := cfg.WriteRawTiles(fs); err != nil {
		t.Fatal(err)
	}
	if err := cfg.RunPipeline(fs, StageProject, StageAdd); err != nil {
		t.Fatal(err)
	}
	img, err := vfs.ReadFile(fs, ImagePath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(img), "P5\n110 110\n255\n") {
		t.Fatalf("pgm header: %q", img[:20])
	}
	minV, err := ReadMin(fs)
	if err != nil {
		t.Fatal(err)
	}
	// The synthetic background sits near 83; the background-matched
	// mosaic min must be in that neighbourhood (not at a star or the
	// galaxy).
	if minV < 70 || minV > 95 {
		t.Fatalf("mosaic min = %v, implausible", minV)
	}
	mosaic, err := fits.Read(fs, MosaicPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mosaic.Width != 110 || mosaic.Height != 110 {
		t.Fatalf("mosaic dims %dx%d", mosaic.Width, mosaic.Height)
	}
}

func TestBackgroundMatchingReducesSeams(t *testing.T) {
	// Compare overlap disagreement before and after mBgExec: the plane
	// corrections must shrink the inter-tile background differences.
	cfg := smallConfig()
	fs := vfs.NewMemFS()
	if err := cfg.WriteRawTiles(fs); err != nil {
		t.Fatal(err)
	}
	if err := cfg.RunPipeline(fs, StageProject, StageBg); err != nil {
		t.Fatal(err)
	}
	disagreement := func(pathOf func(int) string) float64 {
		var total float64
		var n int
		imgs := make([]*fits.Image, cfg.Tiles)
		for i := 0; i < cfg.Tiles; i++ {
			im, err := fits.Read(fs, pathOf(i), nil)
			if err != nil {
				t.Fatal(err)
			}
			imgs[i] = im
		}
		for i := 0; i < cfg.Tiles; i++ {
			for j := i + 1; j < cfg.Tiles; j++ {
				x0, y0, x1, y1, ok := overlap(imgs[i], imgs[j])
				if !ok {
					continue
				}
				for y := y0; y < y1; y++ {
					for x := x0; x < x1; x++ {
						vi := imgs[i].At(x-int(imgs[i].CRVAL1), y-int(imgs[i].CRVAL2))
						vj := imgs[j].At(x-int(imgs[j].CRVAL1), y-int(imgs[j].CRVAL2))
						if vi == 0 || vj == 0 {
							continue
						}
						total += math.Abs(vi - vj)
						n++
					}
				}
			}
		}
		return total / float64(n)
	}
	before := disagreement(projPath)
	after := disagreement(corrPath)
	if after >= before {
		t.Fatalf("background matching did not help: before=%.3f after=%.3f", before, after)
	}
}

func TestPlaneFitExact(t *testing.T) {
	// planeSums must recover an exact plane.
	var s planeSums
	for y := 0; y < 10; y++ {
		for x := 0; x < 10; x++ {
			s.add(float64(x), float64(y), 3.5+0.25*float64(x)-0.75*float64(y))
		}
	}
	p, err := solve3(s.m, s.rhs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p[0]-3.5) > 1e-9 || math.Abs(p[1]-0.25) > 1e-9 || math.Abs(p[2]+0.75) > 1e-9 {
		t.Fatalf("plane = %v", p)
	}
	if s.n != 100 {
		t.Fatalf("n = %d, want 100", s.n)
	}
}

// slicePlaneFit is the fitting pass as it was before the sums were
// streamed: gather the covered pixels into three slices, then sum the
// normal equations over them.
func slicePlaneFit(diff *fits.Image) ([3]float64, int, error) {
	var xs, ys, ds []float64
	for y := 0; y < diff.Height; y++ {
		for x := 0; x < diff.Width; x++ {
			d := diff.At(x, y)
			if math.IsNaN(d) {
				continue
			}
			xs = append(xs, diff.CRVAL1+float64(x))
			ys = append(ys, diff.CRVAL2+float64(y))
			ds = append(ds, d)
		}
	}
	var m [3][3]float64
	var rhs [3]float64
	for i := range ds {
		v := [3]float64{1, xs[i], ys[i]}
		for r := 0; r < 3; r++ {
			for cc := 0; cc < 3; cc++ {
				m[r][cc] += v[r] * v[cc]
			}
			rhs[r] += v[r] * ds[i]
		}
	}
	p, err := solve3(m, rhs)
	return p, len(ds), err
}

// TestPlaneSumsMatchesSliceFit pins the streamed fit to the slice-based
// one: bit-identical coefficients, counts and errors on random difference
// images with NaN holes, so the fits table cannot move.
func TestPlaneSumsMatchesSliceFit(t *testing.T) {
	rng := stats.NewRNG(24)
	for trial := 0; trial < 200; trial++ {
		diff := fits.New(rng.Intn(60)+1, rng.Intn(60)+1)
		diff.CRVAL1, diff.CRVAL2 = float64(rng.Intn(100)), float64(rng.Intn(100))
		hole := rng.Float64()
		a, b, c := rng.NormFloat64()*10, rng.NormFloat64(), rng.NormFloat64()
		for y := 0; y < diff.Height; y++ {
			for x := 0; x < diff.Width; x++ {
				v := a + b*float64(x) + c*float64(y) + rng.NormFloat64()
				if rng.Float64() < hole {
					v = math.NaN()
				}
				diff.Set(x, y, v)
			}
		}
		want, wantN, wantErr := slicePlaneFit(diff)
		sums := diffSums(diff)
		got, gotErr := solve3(sums.m, sums.rhs)
		if sums.n != wantN {
			t.Fatalf("trial %d: n = %d, want %d", trial, sums.n, wantN)
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: err = %v, want %v", trial, gotErr, wantErr)
		}
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("trial %d: p[%d] = %v, want %v", trial, k, got[k], want[k])
			}
		}
	}
}

func TestSolve3Singular(t *testing.T) {
	_, err := solve3([3][3]float64{{1, 2, 3}, {2, 4, 6}, {0, 0, 1}}, [3]float64{1, 2, 3})
	if err == nil {
		t.Fatal("singular system solved")
	}
}

func TestStageStrings(t *testing.T) {
	names := map[Stage]string{
		StageProject: "mProjExec",
		StageDiff:    "mDiffExec",
		StageBg:      "mBgExec",
		StageAdd:     "mAdd",
	}
	for s, want := range names {
		if s.String() != want {
			t.Errorf("%d.String() = %q", int(s), s.String())
		}
	}
	if len(Stages()) != 4 {
		t.Fatal("stage list")
	}
}

func TestAppGoldenClassifiesBenignAllStages(t *testing.T) {
	cfg := smallConfig()
	for _, stage := range Stages() {
		app, err := NewApp(cfg, stage)
		if err != nil {
			t.Fatal(err)
		}
		fs := vfs.NewMemFS()
		if err := app.Setup(fs); err != nil {
			t.Fatal(err)
		}
		if err := app.Run(fs); err != nil {
			t.Fatal(err)
		}
		if got := app.Classify(fs, nil); got != classify.Benign {
			t.Fatalf("stage %s golden classified %s", stage, got)
		}
	}
}

func TestAppClassifyCrashOnMissingStageOutput(t *testing.T) {
	app, err := NewApp(smallConfig(), StageProject)
	if err != nil {
		t.Fatal(err)
	}
	fs := vfs.NewMemFS()
	if err := app.Setup(fs); err != nil {
		t.Fatal(err)
	}
	// Stage never ran: downstream stages cannot find inputs.
	if got := app.Classify(fs, nil); got != classify.Crash {
		t.Fatalf("classified %s, want crash", got)
	}
}

func TestAppClassifyDetectedOnBlackStripe(t *testing.T) {
	// The Figure 9 scenario: a dropped block zeroes part of a corrected
	// image; the stripe drags the mosaic min far below golden.
	app, err := NewApp(smallConfig(), StageAdd)
	if err != nil {
		t.Fatal(err)
	}
	fs := vfs.NewMemFS()
	if err := app.Setup(fs); err != nil {
		t.Fatal(err)
	}
	// Corrupt a corrected tile before mAdd runs: zero a band of pixels.
	im, err := fits.Read(fs, corrPath(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < im.Width; x++ {
		for y := 20; y < 28; y++ {
			im.Set(x, y, 0)
		}
	}
	if err := fits.Write(fs, corrPath(2), im); err != nil {
		t.Fatal(err)
	}
	if err := app.Run(fs); err != nil {
		t.Fatal(err)
	}
	if got := app.Classify(fs, nil); got != classify.Detected {
		t.Fatalf("black stripe classified %s, want detected", got)
	}
}

func TestAppClassifySmallPerturbationSDC(t *testing.T) {
	// A sub-threshold brightness tweak away from the minimum changes the
	// image but keeps the min statistic within tolerance: SDC.
	app, err := NewApp(smallConfig(), StageAdd)
	if err != nil {
		t.Fatal(err)
	}
	fs := vfs.NewMemFS()
	if err := app.Setup(fs); err != nil {
		t.Fatal(err)
	}
	im, err := fits.Read(fs, corrPath(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Brighten one bright (galaxy) pixel noticeably — image changes, min
	// does not.
	maxIdx := 0
	for i, v := range im.Data {
		if v > im.Data[maxIdx] {
			maxIdx = i
		}
	}
	im.Data[maxIdx] += 40
	if err := fits.Write(fs, corrPath(1), im); err != nil {
		t.Fatal(err)
	}
	if err := app.Run(fs); err != nil {
		t.Fatal(err)
	}
	if got := app.Classify(fs, nil); got != classify.SDC {
		t.Fatalf("bright-pixel tweak classified %s, want SDC", got)
	}
}

func TestCampaignStage1BitFlip(t *testing.T) {
	app, err := NewApp(smallConfig(), StageProject)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runCampaign(0, core.CampaignConfig{
		Fault: core.Config{Model: core.BitFlip},
		Runs:  15,
		Seed:  3,
	}, app.Workload())
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Total() != 15 {
		t.Fatalf("tally: %s", res.Tally.String())
	}
	if res.ProfileCount == 0 {
		t.Fatal("no writes profiled in stage 1")
	}
	// Benign should exist (mantissa flips below the 8-bit quantization).
	if res.Tally.Count(classify.Benign) == 0 {
		t.Fatalf("no benign outcomes: %s", res.Tally.String())
	}
}

func TestCampaignStage4DroppedWriteNotBenign(t *testing.T) {
	app, err := NewApp(smallConfig(), StageAdd)
	if err != nil {
		t.Fatal(err)
	}
	res, err := runCampaign(0, core.CampaignConfig{
		Fault: core.Config{Model: core.DroppedWrite},
		Runs:  10,
		Seed:  11,
	}, app.Workload())
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Count(classify.Benign) == 10 {
		t.Fatalf("all dropped writes benign in mAdd: %s", res.Tally.String())
	}
}

func TestReadMinErrors(t *testing.T) {
	fs := vfs.NewMemFS()
	if _, err := ReadMin(fs); err == nil {
		t.Fatal("missing stats accepted")
	}
	vfs.WriteFile(fs, StatsPath, []byte("nonsense"))
	if _, err := ReadMin(fs); err == nil {
		t.Fatal("garbage stats accepted")
	}
}

func TestDescribe(t *testing.T) {
	if !strings.Contains(Describe(), "Montage") {
		t.Fatal("describe missing app name")
	}
}
