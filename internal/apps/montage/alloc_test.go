package montage

import (
	"fmt"
	"runtime"
	"testing"

	"ffis/internal/vfs"
)

// TestStageRunAllocationBound bounds what one campaign run of each stage
// allocates once its slot is warm: Run plus Classify through one Worker
// pair, on clones of the post-Setup world attached to one block list and
// released after each run, as the campaign loop drives them. Per-slot
// scratch images and recycled world blocks keep each stage under a third
// of the bounds that held with a fresh image per role and fresh blocks
// per run.
//
// The passes are fault-free, so MT2's classification takes the shortcut
// (App.masked) on a bare clone. A second MT2 pass classifies through a
// wrapper that hides the *MemFS, so vfs.Unchanged answers false and the
// full downstream pipeline runs under the same bound.
func TestStageRunAllocationBound(t *testing.T) {
	const mib = 1 << 20
	const warmup, passes = 3, 20
	bound := map[Stage]float64{
		StageProject: 8.0 / 3 * mib,
		StageDiff:    6.0 / 3 * mib,
		StageBg:      3.2 / 3 * mib,
		StageAdd:     2.0 / 3 * mib,
	}
	for _, stage := range Stages() {
		app, err := NewApp(DefaultConfig(), stage)
		if err != nil {
			t.Fatal(err)
		}
		world := vfs.NewMemFS()
		if err := app.Setup(world); err != nil {
			t.Fatal(err)
		}
		hides := []bool{false}
		if stage == StageDiff {
			hides = append(hides, true)
		}
		for _, hide := range hides {
			run, classify := app.Worker()
			var list vfs.BlockList
			pass := func() {
				fs := world.Clone()
				fs.Attach(&list)
				err := run(fs)
				if hide {
					classify(struct{ vfs.FS }{fs}, err)
				} else {
					classify(fs, err)
				}
				fs.Release()
			}
			for i := 0; i < warmup; i++ {
				pass()
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < passes; i++ {
				pass()
			}
			runtime.ReadMemStats(&after)
			perRun := float64(after.TotalAlloc-before.TotalAlloc) / passes
			name := fmt.Sprintf("MT%d", int(stage))
			if hide {
				name += " (MemFS hidden)"
			}
			t.Logf("%s: %.3f MiB per run (bound %.3f MiB)", name, perRun/mib, bound[stage]/mib)
			if perRun > bound[stage] {
				t.Errorf("%s allocates %.3f MiB per run, bound %.3f MiB", name, perRun/mib, bound[stage]/mib)
			}
		}
	}
}
