package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ffis/internal/apps/montage"
	"ffis/internal/apps/qmcpack"
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

// gridLines runs specs on an engine of the given width and returns their
// store lines, each spec's records after a line naming its key.
func gridLines(t *testing.T, specs []WireSpec, jobs int) []string {
	t.Helper()
	grid, err := Options{Engine: &core.Engine{Jobs: jobs}}.runGrid(specs)
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, g := range grid {
		head, err := json.Marshal(struct {
			Key string `json:"key"`
		}{g.Spec.Key})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(head))
		lines = append(lines, recordLines(t, g)...)
	}
	return lines
}

// checkGridGolden fails t unless the store lines of specs equal the golden
// at path byte for byte, at jobs 1 and 8, and returns the golden. With
// UPDATE_GOLDEN set it first rewrites the golden from a jobs-1 run.
func checkGridGolden(t *testing.T, path string, specs []WireSpec) string {
	t.Helper()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		lines := gridLines(t, specs, 1)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for _, jobs := range []int{1, 8} {
		got := gridLines(t, specs, jobs)
		if len(got) != len(want) {
			t.Fatalf("jobs %d: %d lines, golden has %d", jobs, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("jobs %d line %d differs from the golden\n  golden %s\n  got    %s", jobs, i+1, want[i], got[i])
			}
		}
	}
	return string(raw)
}

// TestWorkerRecordsMatchPlainRuns pins core.Workload.Worker to Run and
// Classify: for every Montage stage under bit flips, shorn writes and
// dropped writes, and for the Nyx cell and Nyx pipeline under those and
// read bit flips, a campaign whose runs share per-slot scratch through
// Worker stores records byte-identical to one that builds fresh scratch
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
	// Nyx: the standard cell and the pipeline, whose consumer runs the
	// halo finder inside Run, also under read faults.
	for _, nc := range []struct {
		name   string
		build  func(string, Options) (core.Workload, error)
		models []core.Model
	}{
		{"nyx", NewWorkload, models},
		{"nyx.pipeline", NewPipelineWorkload, append(models, core.ReadBitFlip)},
	} {
		w, err := nc.build("nyx", Options{NyxN: 24})
		if err != nil {
			t.Fatal(err)
		}
		pw := w
		pw.Worker = nil
		for _, m := range nc.models {
			cfg := core.CampaignConfig{Fault: core.Config{Model: m}, Runs: runs, Seed: seed}
			key := nc.name + "/" + m.Short()
			plain = append(plain, core.CampaignSpec{Key: key, WorldKey: key + "/plain", Workload: pw, Config: cfg})
			worker = append(worker, core.CampaignSpec{Key: key, WorldKey: key + "/worker", Workload: w, Config: cfg})
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

// editOnOpen rewrites one file the first time it is opened for reading.
type editOnOpen struct {
	vfs.FS
	path string
	edit func(vfs.FS) // nil leaves the file as written
	done *bool
}

func (f editOnOpen) Open(name string) (vfs.File, error) {
	if name == f.path && f.edit != nil && !*f.done {
		*f.done = true
		f.edit(f.FS)
	}
	return f.FS.Open(name)
}

// TestQMCPACKWorkerMatchesFreshScratch pins the QMCPACK Workers, whose
// slot keeps the buffer it reads the DMC file into, to plain Run and
// Classify. One pair of the standard cell (Classify reads the file) and
// one of the pipeline (Run's consumer reads it) meet, in turn, the golden
// file, a bit-flipped one, a truncated one, an empty one, none at all,
// the golden file again and none again; each step must give the run error
// and outcome a fresh Run and Classify give.
func TestQMCPACKWorkerMatchesFreshScratch(t *testing.T) {
	rewrite := func(edit func([]byte) []byte) func(vfs.FS) {
		return func(fs vfs.FS) {
			raw, err := vfs.ReadFile(fs, qmcpack.DMCPath)
			if err == nil {
				err = vfs.WriteFile(fs, qmcpack.DMCPath, edit(raw))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	remove := func(fs vfs.FS) {
		if err := fs.Remove(qmcpack.DMCPath); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		name string
		edit func(vfs.FS)
	}{
		{"golden", nil},
		{"bit flipped", rewrite(func(raw []byte) []byte { raw[len(raw)/2] ^= 0x04; return raw })},
		{"truncated", rewrite(func(raw []byte) []byte { return raw[:len(raw)/3] })},
		{"empty", rewrite(func([]byte) []byte { return nil })},
		{"missing", remove},
		{"golden again", nil},
		{"missing after golden", remove},
	}
	for _, cell := range []struct {
		name  string
		build func(string, Options) (core.Workload, error)
	}{{"qmcpack", NewWorkload}, {"qmcpack.pipeline", NewPipelineWorkload}} {
		w, err := cell.build("qmcpack", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if w.Worker == nil {
			t.Fatal("the QMCPACK workload has no Worker")
		}
		run, cls := w.Worker()
		outcome := func(edit func(vfs.FS), run func(vfs.FS) error, cls func(vfs.FS, error) classify.Outcome) (string, classify.Outcome) {
			world := vfs.NewMemFS()
			if w.Setup != nil {
				if err := w.Setup(world); err != nil {
					t.Fatal(err)
				}
			}
			fs := editOnOpen{world, qmcpack.DMCPath, edit, new(bool)}
			err := run(fs)
			return fmt.Sprint(err), cls(fs, err)
		}
		seen := map[classify.Outcome]bool{}
		for _, st := range steps {
			wantErr, want := outcome(st.edit, w.Run, w.Classify)
			gotErr, got := outcome(st.edit, run, cls)
			if gotErr != wantErr || got != want {
				t.Fatalf("%s, %s: the Worker gives %s (run error %s), fresh scratch %s (run error %s)",
					cell.name, st.name, got, gotErr, want, wantErr)
			}
			seen[want] = true
		}
		if !seen[classify.Crash] || len(seen) < 3 {
			t.Fatalf("%s: the steps gave only %v", cell.name, seen)
		}
	}
}
