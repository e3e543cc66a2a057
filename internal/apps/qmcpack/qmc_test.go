package qmcpack

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/stats"
	"ffis/internal/trace"
	"ffis/internal/vfs"
)

// runCampaign runs one campaign as a one-spec Engine grid on jobs slots
// (<= 0 selects GOMAXPROCS).
func runCampaign(jobs int, cfg core.CampaignConfig, w core.Workload) (core.CampaignResult, error) {
	grid := (&core.Engine{Jobs: jobs}).Run([]core.CampaignSpec{{Workload: w, Config: cfg}})
	return grid[0].Result, grid[0].Err
}

func TestLocalEnergyAtExactPoints(t *testing.T) {
	// For a bare hydrogenic product (A=0) with Z=2 the local energy is
	// E_L = -Z² + 1/r12 (kinetic+nuclear terms are exact for the
	// exponential orbital).
	trial := trialWavefunction{Z: 2, A: 0, B: 0.35}
	w := walker{r: [6]float64{1, 0, 0, -1, 0, 0}} // r1=r2=1, r12=2
	e, _ := trial.localEnergy(w, w.geometry())
	want := -4.0 + 0.5
	if math.Abs(e-want) > 1e-9 {
		t.Fatalf("E_L = %v, want %v", e, want)
	}
}

func TestLocalEnergyFiniteEverywhere(t *testing.T) {
	trial := defaultTrial()
	rng := stats.NewRNG(3)
	for i := 0; i < 10000; i++ {
		var w walker
		for k := 0; k < 6; k++ {
			w.r[k] = rng.NormFloat64() * 2
		}
		e, drift := trial.localEnergy(w, w.geometry())
		if math.IsNaN(e) || math.IsInf(e, 0) {
			t.Fatalf("E_L = %v at %v", e, w.r)
		}
		for _, d := range drift {
			if math.IsNaN(d) || math.IsInf(d, 0) {
				t.Fatalf("drift = %v at %v", drift, w.r)
			}
		}
	}
}

func TestLocalEnergyCuspStability(t *testing.T) {
	// Near the electron-nucleus coalescence the cusp condition keeps E_L
	// finite; verify no blow-up at tiny r1.
	trial := defaultTrial()
	w := walker{r: [6]float64{1e-7, 0, 0, 0.7, 0.1, -0.3}}
	e, _ := trial.localEnergy(w, w.geometry())
	if math.IsNaN(e) || math.IsInf(e, 0) {
		t.Fatalf("E_L = %v at nucleus", e)
	}
}

func TestVMCEnergyPlausible(t *testing.T) {
	cfg := DefaultQMC()
	cfg.VMCSteps = 200
	rows, _ := RunVMC(cfg, defaultTrial())
	if len(rows) != 200 {
		t.Fatalf("rows = %d", len(rows))
	}
	var sum float64
	for _, r := range rows {
		sum += r.Energy
	}
	mean := sum / float64(len(rows))
	// The Padé-Jastrow VMC energy for He sits between the bare
	// Hartree product (-2.85) and the exact energy (-2.90372).
	if mean > -2.80 || mean < -2.95 {
		t.Fatalf("VMC energy = %v, implausible for He", mean)
	}
	for _, r := range rows {
		if r.Variance < 0 || r.Weight <= 0 {
			t.Fatalf("bad row: %+v", r)
		}
	}
}

func TestDMCImprovesOnVMC(t *testing.T) {
	app := newTestApp(t)
	vmcA, err := Analyze(string(app.vmcContent))
	if err != nil {
		t.Fatal(err)
	}
	dmcA, err := Analyze(string(app.dmcContent))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dmcA.Energy-ExactEnergy) > math.Abs(vmcA.Energy-ExactEnergy) {
		t.Fatalf("DMC (%.5f) further from exact %.5f than VMC (%.5f)",
			dmcA.Energy, ExactEnergy, vmcA.Energy)
	}
}

func TestDMCPopulationControlled(t *testing.T) {
	cfg := DefaultQMC()
	cfg.DMCSteps = 200
	trial := defaultTrial()
	_, ensemble := RunVMC(cfg, trial)
	rows := RunDMC(cfg, trial, ensemble)
	for i, r := range rows {
		if r.Weight < float64(cfg.PopTarget)/4 || r.Weight > float64(cfg.PopTarget)*4 {
			t.Fatalf("step %d: population %v escaped control", i, r.Weight)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	app := newTestApp(t)
	v, d := RunAll(DefaultQMC())
	if FormatRows(v) != string(app.vmcContent) || FormatRows(d) != string(app.dmcContent) {
		t.Fatal("Monte Carlo not deterministic for fixed seed")
	}
}

// TestGoldenQMCOutputPinned pins the golden scalar.dat contents of
// DefaultQMC: any change to the draw order, the physics or the row format
// moves these hashes, and with them every QMCPACK campaign record. A third
// hash pins a DMC run whose population dies out and regrows (τ = 50, three
// walkers against a target of 30): each extinction reseeds from a copy of
// the previous ensemble, which the recycled population slices must not
// alias.
func TestGoldenQMCOutputPinned(t *testing.T) {
	app := newTestApp(t)
	cfg := DefaultQMC()
	cfg.Walkers, cfg.VMCEquil, cfg.VMCSteps = 3, 5, 5
	cfg.DMCSteps, cfg.TimeStep, cfg.PopTarget = 200, 50, 30
	_, ensemble := RunVMC(cfg, defaultTrial())
	extinct := FormatRows(RunDMC(cfg, defaultTrial(), ensemble))
	for _, c := range []struct{ name, content, want string }{
		{"VMC", string(app.vmcContent), "f69a46651133ad236749bc05535ccbf67e4845d59af4cbd2b4c00bfa6e954336"},
		{"DMC", string(app.dmcContent), "35461f27b9659724ad742ae1f3aa1a1672587cfab6b3a04859750e5f5e7db017"},
		{"DMC with extinctions", extinct, "b4e20d09966d6228bf8c10c072e264c521e53ad4f35df3086c13e56e319857e7"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(c.content))); got != c.want {
			t.Errorf("%s rows hash %s, want %s", c.name, got, c.want)
		}
	}
}

// stageStates returns the scheduler state ("chan receive", "running",
// ...) of every goroutine inside a drawStream stage, keyed by stage.
func stageStates() map[string][]string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	states := map[string][]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		for _, stage := range []string{"generate", "transform"} {
			if strings.Contains(g, "(*drawStream)."+stage+"(") {
				states[stage] = append(states[stage], g[strings.Index(g, "[")+1:strings.Index(g, "]")])
			}
		}
	}
	return states
}

// TestRunAllLeavesNoGoroutine checks that both draw stages stop when their
// runs return: after a whole RunAll, after a RunDMC that stops while its
// stages are chunks ahead, when close comes while transform holds a chunk
// and generate waits for a free one, and when the consumer panics, at its
// first draw or mid-chunk with both stages idle.
func TestRunAllLeavesNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	// A stopped stage is still counted until it returns from the deferred
	// channel close that close waits for, so poll briefly.
	settled := func(what string) {
		t.Helper()
		for i := 0; runtime.NumGoroutine() > base || len(stageStates()) > 0; i++ {
			if i == 1000 {
				t.Fatalf("%s: %d goroutines, want %d; stages left: %v", what, runtime.NumGoroutine(), base, stageStates())
			}
			time.Sleep(time.Millisecond)
		}
	}
	cfg := DefaultQMC()
	cfg.Walkers, cfg.VMCEquil, cfg.VMCSteps, cfg.DMCSteps = 40, 5, 10, 20
	if v, d := RunAll(cfg); len(v) != 10 || len(d) != 20 {
		t.Fatalf("RunAll gave %d VMC and %d DMC rows", len(v), len(d))
	}
	settled("RunAll")

	cfg.DMCSteps = 1
	_, ensemble := RunVMC(cfg, defaultTrial())
	if rows := RunDMC(cfg, defaultTrial(), ensemble[:3]); len(rows) != 1 {
		t.Fatalf("RunDMC gave %d rows", len(rows))
	}
	settled("short RunDMC")

	// One chunk and an unbuffered full channel: transform holds the chunk,
	// blocked handing it over, while generate waits on the empty free list.
	s := &drawStream{free: make(chan []draw, 1), pairs: make(chan []draw, 1), full: make(chan []draw)}
	s.free <- make([]draw, drawChunk)
	go s.generate(stats.NewRNG(1), true)
	go s.transform()
	for i := 0; ; i++ {
		st := stageStates()
		if len(st["generate"]) == 1 && strings.HasPrefix(st["generate"][0], "chan receive") &&
			len(st["transform"]) == 1 && strings.HasPrefix(st["transform"][0], "chan send") {
			break
		}
		if i == 1000 {
			t.Fatalf("stages never reached generate blocked, transform holding a chunk: %v", st)
		}
		time.Sleep(time.Millisecond)
	}
	s.close()
	settled("close while transform holds a chunk")

	func() {
		defer func() { recover() }()
		s := newDrawStream(stats.NewRNG(1), true)
		defer s.close()
		s.next()
		panic("consumer failed")
	}()
	settled("consumer panicking at its first draw")

	func() {
		defer func() { recover() }()
		s := newDrawStream(stats.NewRNG(1), true)
		defer s.close()
		for range drawChunk + drawChunk/2 {
			s.next()
		}
		// Both stages idle: every chunk but the consumer's is transformed.
		for len(s.full) < drawBufs-1 {
			runtime.Gosched()
		}
		panic("consumer failed mid-chunk")
	}()
	settled("consumer panicking mid-chunk")
}

func TestFormatAndAnalyzeRoundTrip(t *testing.T) {
	rows := []Row{
		{0, -2.9, 0.3, 100},
		{1, -2.91, 0.31, 101},
		{2, -2.89, 0.29, 99},
		{3, -2.90, 0.30, 100},
		{4, -2.905, 0.30, 100},
	}
	content := FormatRows(rows)
	if !strings.HasPrefix(content, "#") {
		t.Fatal("missing header")
	}
	a, err := Analyze(content)
	if err != nil {
		t.Fatal(err)
	}
	// 20% equilibration discards the first row.
	if a.Rows != 4 {
		t.Fatalf("rows = %d, want 4", a.Rows)
	}
	if a.Energy > -2.89 || a.Energy < -2.92 {
		t.Fatalf("energy = %v", a.Energy)
	}
	if a.Skipped != 0 {
		t.Fatalf("skipped = %d", a.Skipped)
	}
}

func TestAnalyzeSkipsCorruptRows(t *testing.T) {
	content := header +
		"0  -2.9  0.3  100\n" +
		"1  -2.9  0.3  100\n" +
		"garbage line here x\n" +
		"2  -2.9q  0.3  100\n" + // unparseable energy
		"3  -2.9  0.3  -5\n" + // non-positive weight
		"4  -2.9  0.3  100\n" +
		"5  -2.9  0.3  100\n"
	a, err := Analyze(content)
	if err != nil {
		t.Fatal(err)
	}
	if a.Skipped != 3 {
		t.Fatalf("skipped = %d, want 3", a.Skipped)
	}
	if math.Abs(a.Energy+2.9) > 1e-9 {
		t.Fatalf("energy = %v", a.Energy)
	}
}

func TestAnalyzeFailsOnEmpty(t *testing.T) {
	if _, err := Analyze(""); err == nil {
		t.Fatal("empty content accepted")
	}
	if _, err := Analyze(header); err == nil {
		t.Fatal("header-only content accepted")
	}
	if _, err := Analyze("all\ngarbage\nrows\n"); err == nil {
		t.Fatal("all-garbage content accepted")
	}
}

func TestWriteScalarFileBlockWrites(t *testing.T) {
	fs := trace.NewRecorder(vfs.NewMemFS())
	content := strings.Repeat("x", 10000)
	if err := WriteScalarFile(fs, "/f", []byte(content)); err != nil {
		t.Fatal(err)
	}
	if got := trace.Analyze(fs.Log()).ByPrim[vfs.PrimWrite]; got != 3 { // ceil(10000/4096)
		t.Fatalf("writes = %d, want 3", got)
	}
	raw, _ := vfs.ReadFile(fs, "/f")
	if string(raw) != content {
		t.Fatal("content mismatch")
	}
}

// sharedApp builds the DefaultQMC App once for every test that only reads
// it; an App is never changed after NewApp.
var sharedApp = sync.OnceValues(func() (*App, error) { return NewApp(DefaultQMC()) })

func newTestApp(t *testing.T) *App {
	t.Helper()
	app, err := sharedApp()
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func TestGoldenEnergyInWindow(t *testing.T) {
	app := newTestApp(t)
	e := app.GoldenEnergy()
	if e < SDCWindowLo || e > SDCWindowHi {
		t.Fatalf("golden energy %.5f outside [%g, %g]", e, SDCWindowLo, SDCWindowHi)
	}
	// And close to the exact non-relativistic value.
	if math.Abs(e-ExactEnergy) > 0.006 {
		t.Fatalf("golden energy %.5f too far from exact %.5f", e, ExactEnergy)
	}
}

func TestAppGoldenClassifiesBenign(t *testing.T) {
	app := newTestApp(t)
	fs := vfs.NewMemFS()
	if err := app.Run(fs); err != nil {
		t.Fatal(err)
	}
	if got := app.Classify(fs, nil); got != classify.Benign {
		t.Fatalf("golden run classified %s", got)
	}
}

func TestAppClassifyVMCCorruptionBenign(t *testing.T) {
	// Faults that land in the VMC series file leave the DMC series
	// untouched: benign, per the paper's classification.
	app := newTestApp(t)
	fs := vfs.NewMemFS()
	if err := app.Run(fs); err != nil {
		t.Fatal(err)
	}
	raw, _ := vfs.ReadFile(fs, VMCPath)
	raw[100] ^= 0xFF
	vfs.WriteFile(fs, VMCPath, raw)
	if got := app.Classify(fs, nil); got != classify.Benign {
		t.Fatalf("VMC-file corruption classified %s", got)
	}
}

func TestAppClassifySmallDigitFlipIsSDC(t *testing.T) {
	app := newTestApp(t)
	fs := vfs.NewMemFS()
	app.Run(fs)
	raw, _ := vfs.ReadFile(fs, DMCPath)
	// Flip a low-order decimal digit of an energy in a mid-file row:
	// tiny change, energy stays within the window. The energy column is
	// the first "." on a row; its 6th decimal is well inside the
	// 10-digit fraction.
	content := string(raw)
	idx := strings.Index(content[len(content)/2:], ".") + len(content)/2
	raw[idx+6] = flipDigit(raw[idx+6])
	vfs.WriteFile(fs, DMCPath, raw)
	if got := app.Classify(fs, nil); got != classify.SDC {
		t.Fatalf("small digit flip classified %s, want SDC", got)
	}
}

func flipDigit(b byte) byte {
	if b == '9' {
		return '8'
	}
	if b >= '0' && b < '9' {
		return b + 1
	}
	return '1'
}

func TestAppClassifyBigCorruptionDetected(t *testing.T) {
	app := newTestApp(t)
	fs := vfs.NewMemFS()
	app.Run(fs)
	raw, _ := vfs.ReadFile(fs, DMCPath)
	// Corrupt the integer part of many energies: -2.xx -> -7.xx.
	content := strings.ReplaceAll(string(raw), " -2.9", " -7.9")
	vfs.WriteFile(fs, DMCPath, []byte(content))
	if got := app.Classify(fs, nil); got != classify.Detected {
		t.Fatalf("gross corruption classified %s, want detected", got)
	}
}

func TestAppClassifyMissingFileCrash(t *testing.T) {
	app := newTestApp(t)
	fs := vfs.NewMemFS()
	app.Run(fs)
	fs.Remove(DMCPath)
	if got := app.Classify(fs, nil); got != classify.Crash {
		t.Fatalf("missing file classified %s", got)
	}
}

func TestAppClassifyZeroFilledCrash(t *testing.T) {
	app := newTestApp(t)
	fs := vfs.NewMemFS()
	app.Run(fs)
	info, _ := fs.Stat(DMCPath)
	vfs.WriteFile(fs, DMCPath, make([]byte, info.Size))
	if got := app.Classify(fs, nil); got != classify.Crash {
		t.Fatalf("zero-filled file classified %s", got)
	}
}

func TestCampaignShapeBitFlip(t *testing.T) {
	// The QMCPACK phenomenology: a large fraction of bit flips are SDC
	// (any flip in the DMC file that keeps the energy plausible), with
	// benign runs from flips landing in the VMC file.
	app := newTestApp(t)
	res, err := runCampaign(0, core.CampaignConfig{
		Fault: core.Config{Model: core.BitFlip},
		Runs:  30,
		Seed:  5,
	}, app.Workload())
	if err != nil {
		t.Fatal(err)
	}
	sdc := res.Tally.Rate(classify.SDC).P()
	if sdc < 0.2 {
		t.Fatalf("bit-flip SDC rate = %.2f, want QMCPACK-like (high): %s", sdc, res.Tally.String())
	}
	if res.Tally.Count(classify.Benign) == 0 {
		t.Fatalf("expected some benign runs from VMC-file hits: %s", res.Tally.String())
	}
}

func TestDescribe(t *testing.T) {
	if !strings.Contains(Describe(), "QMCPACK") {
		t.Fatal("describe missing app name")
	}
}

// failFS hands out files whose Sync and Close fail with the given errors.
type failFS struct {
	vfs.FS
	syncErr, closeErr error
}

type failFile struct {
	vfs.File
	syncErr, closeErr error
}

func (f *failFS) Create(name string) (vfs.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &failFile{File: file, syncErr: f.syncErr, closeErr: f.closeErr}, nil
}

func (f *failFile) Sync() error {
	if f.syncErr != nil {
		return f.syncErr
	}
	return f.File.Sync()
}

func (f *failFile) Close() error {
	f.File.Close()
	return f.closeErr
}

func TestWriteScalarFileReturnsSyncAndCloseErrors(t *testing.T) {
	syncErr, closeErr := errors.New("sync failed"), errors.New("close failed")
	cases := []struct {
		name            string
		syncErr, closed error
		want            error
	}{
		{"close", nil, closeErr, closeErr},
		{"sync before close", syncErr, closeErr, syncErr},
		{"neither", nil, nil, nil},
	}
	for _, c := range cases {
		fs := &failFS{FS: vfs.NewMemFS(), syncErr: c.syncErr, closeErr: c.closed}
		if err := WriteScalarFile(fs, "/t.dat", []byte(strings.Repeat("x", 5000))); err != c.want {
			t.Errorf("%s: WriteScalarFile = %v, want %v", c.name, err, c.want)
		}
	}
}
