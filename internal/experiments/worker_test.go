package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ffis/internal/apps/montage"
	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/results"
	"ffis/internal/vfs"
)

// readBackFS panics when the run opens a file whose size differs from the
// fault-free run's: a Run that dies midway, after its scratch images were
// partly overwritten.
type readBackFS struct {
	vfs.FS
	golden map[string]int64
}

func (f readBackFS) Open(name string) (vfs.File, error) {
	if want, ok := f.golden[name]; ok {
		if info, err := f.Stat(name); err == nil && info.Size != want {
			panic(fmt.Sprintf("read-back of %s: %d bytes, fault-free %d", name, info.Size, want))
		}
	}
	return f.FS.Open(name)
}

// goldenSizes returns the size of every file a fault-free run of app
// leaves behind.
func goldenSizes(t *testing.T, app *montage.App) map[string]int64 {
	t.Helper()
	world := vfs.NewMemFS()
	if err := app.Setup(world); err != nil {
		t.Fatal(err)
	}
	if err := app.Run(world); err != nil {
		t.Fatal(err)
	}
	golden := map[string]int64{}
	if err := vfs.Walk(world, "/", func(p string, info vfs.FileInfo) error {
		golden[p] = info.Size
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return golden
}

// recordLines encodes a grid cell's records as its store lines.
func recordLines(t *testing.T, g core.GridResult) []string {
	t.Helper()
	if g.Err != nil {
		t.Fatalf("%s: %v", g.Spec.Key, g.Err)
	}
	var out []string
	for _, rec := range g.Result.Records {
		line, err := json.Marshal(results.NewRecord(rec))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(line))
	}
	return out
}

// TestWorkerRecordsMatchPlainRuns pins core.Workload.Worker to Run and
// Classify: for every Montage stage under bit flips, shorn writes and
// dropped writes, a campaign whose runs share per-slot scratch through
// Worker stores records byte-identical to one that builds fresh images
// every run, at jobs 1 (one pair serves every run) and jobs 8. Runs that
// return an error, and runs that panic midway through their stage (MT2's
// difference read-back, MT4's mosaic read-back), leave a half-written
// scratch to the next run; its record must not notice.
func TestWorkerRecordsMatchPlainRuns(t *testing.T) {
	const runs, seed = 16, 2021
	models := []core.Model{core.BitFlip, core.ShornWrite, core.DroppedWrite}
	var plain, worker []core.CampaignSpec
	for _, stage := range montage.Stages() {
		app, err := montage.NewApp(montage.DefaultConfig(), stage)
		if err != nil {
			t.Fatal(err)
		}
		golden := goldenSizes(t, app)
		readBack := func(run func(vfs.FS) error) func(vfs.FS) error {
			return func(fs vfs.FS) error { return run(readBackFS{fs, golden}) }
		}
		w := app.Workload()
		pw := w
		pw.Run, pw.Worker = readBack(app.Run), nil
		ww := w
		ww.Worker = func() (func(vfs.FS) error, func(vfs.FS, error) classify.Outcome) {
			run, cls := app.Worker()
			return readBack(run), cls
		}
		for _, m := range models {
			cfg := core.CampaignConfig{Fault: core.Config{Model: m}, Runs: runs, Seed: seed}
			key := fmt.Sprintf("%s/%s", w.Name, m.Short())
			plain = append(plain, core.CampaignSpec{Key: key, WorldKey: key + "/plain", Workload: pw, Config: cfg})
			worker = append(worker, core.CampaignSpec{Key: key, WorldKey: key + "/worker", Workload: ww, Config: cfg})
		}
	}
	// Plain records do not depend on jobs (the engine suites pin that), so
	// one plain grid is the reference for both Worker grids.
	want := map[string][]string{}
	for _, g := range (&core.Engine{Jobs: 1}).Run(plain) {
		want[g.Spec.Key] = recordLines(t, g)
	}
	var panics, errs int
	for _, jobs := range []int{1, 8} {
		for _, g := range (&core.Engine{Jobs: jobs}).Run(worker) {
			got := recordLines(t, g)
			for k, line := range want[g.Spec.Key] {
				if k >= len(got) || got[k] != line {
					t.Fatalf("jobs %d %s run %d: Worker record differs from the plain one\n  plain %s", jobs, g.Spec.Key, k, line)
				}
			}
			for _, rec := range g.Result.Records {
				switch {
				case rec.RunErr == nil:
				case strings.Contains(rec.RunErr.Error(), "application panic"):
					panics++
				default:
					errs++
				}
			}
		}
	}
	if panics == 0 || errs == 0 {
		t.Fatalf("%d panicking and %d failing runs; the test needs both", panics, errs)
	}
	t.Logf("%d panicking and %d failing runs among %d", panics, errs, 2*len(worker)*runs)
}
