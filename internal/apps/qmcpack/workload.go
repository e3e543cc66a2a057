package qmcpack

import (
	"bytes"
	"fmt"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/vfs"
)

// SDC window from the paper (decided with the QMCPACK developers): a final
// energy inside [−2.91, −2.90] Hartree is plausible enough to pass silently;
// outside it the corruption is detected.
const (
	SDCWindowLo = -2.91
	SDCWindowHi = -2.90
)

// CrashSkipFraction: when more than this fraction of data rows are
// unusable, the analysis chain aborts — the crash outcome.
const CrashSkipFraction = 0.5

// App bundles a finished Monte Carlo computation with its I/O replay and
// outcome classification. The Monte Carlo runs once at construction; each
// campaign run replays only the write path, exactly where the paper's
// faults land.
type App struct {
	Cfg QMCConfig

	vmcContent []byte
	dmcContent []byte
	dmc        []line // the parse of every dmcContent line
	goldenE    float64
}

// NewApp runs VMC+DMC and prepares the golden outputs.
func NewApp(cfg QMCConfig) (*App, error) {
	vmcRows, dmcRows := RunAll(cfg)
	a := &App{
		Cfg:        cfg,
		vmcContent: []byte(FormatRows(vmcRows)),
		dmcContent: []byte(FormatRows(dmcRows)),
	}
	a.dmc = parseLines(string(a.dmcContent))
	golden, err := summarize(a.dmc)
	if err != nil {
		return nil, fmt.Errorf("qmcpack: golden analysis failed: %w", err)
	}
	a.goldenE = golden.Energy
	if a.goldenE > SDCWindowHi || a.goldenE < SDCWindowLo {
		return nil, fmt.Errorf("qmcpack: golden DMC energy %.5f outside the SDC window [%g, %g]; adjust QMCConfig",
			a.goldenE, SDCWindowLo, SDCWindowHi)
	}
	return a, nil
}

// GoldenEnergy returns the fault-free DMC energy.
func (a *App) GoldenEnergy() float64 { return a.goldenE }

// Run writes the two scalar files through the (possibly fault-injected)
// file system.
func (a *App) Run(fs vfs.FS) error {
	if err := WriteScalarFile(fs, VMCPath, a.vmcContent); err != nil {
		return err
	}
	return WriteScalarFile(fs, DMCPath, a.dmcContent)
}

// Classify implements the paper's QMCPACK outcome rules: a bit-wise
// identical He.s001.scalar.dat is benign; otherwise the QMCA energy decides
// between SDC (inside the window) and detected (outside); an unusable file
// is a crash. It reads the DMC file into a new buffer.
func (a *App) Classify(fs vfs.FS, runErr error) classify.Outcome {
	return a.classify(fs, runErr, new([]byte))
}

// Worker returns Run and a Classify that reads the DMC file into one
// buffer it keeps from run to run (core.Workload.Worker).
func (a *App) Worker() (func(vfs.FS) error, func(vfs.FS, error) classify.Outcome) {
	var buf []byte
	return a.Run, func(fs vfs.FS, runErr error) classify.Outcome { return a.classify(fs, runErr, &buf) }
}

func (a *App) classify(fs vfs.FS, runErr error, buf *[]byte) classify.Outcome {
	if runErr != nil {
		return classify.Crash
	}
	raw, err := vfs.ReadInto(fs, DMCPath, *buf)
	if err != nil {
		return classify.Crash
	}
	*buf = raw
	if bytes.Equal(raw, a.dmcContent) {
		return classify.Benign
	}
	analysis, err := a.AnalyzeDMC(raw)
	if err != nil {
		return classify.Crash
	}
	if analysis.TotalRows > 0 &&
		float64(analysis.Skipped) > CrashSkipFraction*float64(analysis.TotalRows) {
		return classify.Crash
	}
	if analysis.Energy >= SDCWindowLo && analysis.Energy <= SDCWindowHi {
		return classify.SDC
	}
	return classify.Detected
}

// Workload adapts the app to the campaign runner.
func (a *App) Workload() core.Workload {
	return core.Workload{Name: "qmcpack", Run: a.Run, Classify: a.Classify, Worker: a.Worker}
}

// Describe returns the Table II row for QMCPACK.
func Describe() string {
	return "QMCPACK | Quantum Chemistry | Quantum Monte Carlo simulation for electronic structures of molecules | post-analysis: QMCA energy estimate of the DMC series"
}
