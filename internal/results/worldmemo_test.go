package results

import (
	"sync/atomic"
	"testing"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/vfs"
)

// memoSpec wraps eqWorkload with a Setup that counts how many times the
// engine actually built a world, so the grid-level snapshot memoization is
// observable from outside the engine.
func memoSpec(key, worldKey, model string, setups *atomic.Int32) core.CampaignSpec {
	base := eqWorkload()
	w := core.Workload{
		Name: base.Name,
		Setup: func(fs vfs.FS) error {
			setups.Add(1)
			return base.Setup(fs)
		},
		Run: base.Run,
		Classify: func(fs vfs.FS, runErr error) classify.Outcome {
			return base.Classify(fs, runErr)
		},
	}
	return core.CampaignSpec{
		Key:      key,
		WorldKey: worldKey,
		Workload: w,
		Config: core.CampaignConfig{
			Fault: core.Config{Model: core.MustModel(model)},
			Runs:  8,
			Seed:  eqSeed,
		},
	}
}

// TestRunGridMemoizesWorldsByWorldKey pins the snapshot-sharing contract:
// within one RunGrid invocation, Setup runs once per distinct WorldKey —
// not once per spec — and an engine reused across invocations keeps its
// prepared worlds, so a CLI running several sweeps through one engine
// never rebuilds a world it has already profiled.
func TestRunGridMemoizesWorldsByWorldKey(t *testing.T) {
	var setups atomic.Int32
	specs := []core.CampaignSpec{
		memoSpec("memo/BF", "memo", "bit-flip", &setups),
		memoSpec("memo/DW", "memo", "dropped-write", &setups),
		memoSpec("other/BF", "other", "bit-flip", &setups),
	}
	eng := &core.Engine{Jobs: 4}

	runOnce := func(dir string) {
		t.Helper()
		st, err := Create(dir, Manifest{Seed: eqSeed, Runs: 8})
		if err != nil {
			t.Fatal(err)
		}
		grid, err := RunGrid(eng, st, specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range grid {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Spec.Key, r.Err)
			}
		}
	}

	runOnce(t.TempDir())
	if got := setups.Load(); got != 2 {
		t.Fatalf("one grid over 2 distinct world keys ran Setup %d times, want 2", got)
	}

	// A second sweep on the same engine reuses every prepared world.
	runOnce(t.TempDir())
	if got := setups.Load(); got != 2 {
		t.Fatalf("re-running the grid on the same engine rebuilt worlds: %d setups, want 2", got)
	}

	// A fresh engine has no memo and must rebuild both worlds.
	eng = &core.Engine{Jobs: 4}
	runOnce(t.TempDir())
	if got := setups.Load(); got != 4 {
		t.Fatalf("fresh engine should rebuild each world once: %d setups, want 4", got)
	}
}
