package montage

import (
	"runtime"
	"testing"

	"ffis/internal/vfs"
)

// TestStageRunAllocationBound bounds what one campaign run of each stage
// allocates once its slot is warm: Run plus Classify through one Worker
// pair, on clones of the post-Setup world attached to one block list and
// released after each run, as the campaign Runner drives them. Per-slot
// scratch images and recycled world blocks keep each stage under a third
// of the bounds that held with a fresh image per role and fresh blocks
// per run.
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
		run, classify := app.Worker()
		var list vfs.BlockList
		pass := func() {
			fs := world.Clone()
			fs.Attach(&list)
			classify(fs, run(fs))
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
		t.Logf("MT%d: %.3f MiB per run (bound %.3f MiB)", int(stage), perRun/mib, bound[stage]/mib)
		if perRun > bound[stage] {
			t.Errorf("MT%d allocates %.3f MiB per run, bound %.3f MiB", int(stage), perRun/mib, bound[stage]/mib)
		}
	}
}
