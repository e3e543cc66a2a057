package montage

import (
	"runtime"
	"testing"

	"ffis/internal/vfs"
)

// TestStageRunAllocationBound bounds what one campaign run of each stage
// allocates: Run plus Classify on a clone of the post-Setup world, the
// per-run work of a Montage campaign. Stage-scoped image reuse, block-
// streamed writes and the streamed plane fit keep each stage well under
// the bound; whole-file encode and read buffers and fresh images per tile
// put every stage near twice it.
func TestStageRunAllocationBound(t *testing.T) {
	const mib = 1 << 20
	const passes = 20
	bound := map[Stage]float64{
		StageProject: 8 * mib,
		StageDiff:    6 * mib,
		StageBg:      3.2 * mib,
		StageAdd:     2 * mib,
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
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < passes; i++ {
			fs := world.Clone()
			app.Classify(fs, app.Run(fs))
		}
		runtime.ReadMemStats(&after)
		perRun := float64(after.TotalAlloc-before.TotalAlloc) / passes
		t.Logf("MT%d: %.2f MiB per run (bound %.1f MiB)", int(stage), perRun/mib, bound[stage]/mib)
		if perRun > bound[stage] {
			t.Errorf("MT%d allocates %.2f MiB per run, bound %.1f MiB", int(stage), perRun/mib, bound[stage]/mib)
		}
	}
}
