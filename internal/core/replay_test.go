package core

import (
	"errors"
	"fmt"
	"testing"

	"ffis/internal/vfs"
)

// TestReplayMatchesRunnerRecords pins Engine.Replay to the Runner: for
// every registered model on a flat and a mount-armed tiered world, at Jobs
// 1 and 8, Replay(spec, i, rec.Target) equals record i of Engine.Run in
// every field. The world Replay returns is the caller's own: writing to it
// changes neither the snapshot nor a later Replay. A target outside the
// profiled range and a spec with no targets fail.
func TestReplayMatchesRunnerRecords(t *testing.T) {
	const runs, seed = 24, 2026
	const probe = "/out/replay-probe"
	for _, world := range reuseWorlds() {
		var specs []CampaignSpec
		for _, m := range AllModels() {
			specs = append(specs, CampaignSpec{
				Key:      world.name + "/" + m.Short(),
				Workload: world.w,
				Config:   CampaignConfig{Fault: Config{Model: m}, Runs: runs, Seed: seed, ArmMounts: world.arm},
			})
		}
		for _, jobs := range []int{1, 8} {
			t.Run(fmt.Sprintf("%s/jobs=%d", world.name, jobs), func(t *testing.T) {
				e := &Engine{Jobs: jobs}
				for _, r := range e.Run(specs) {
					if r.Err != nil {
						t.Fatalf("%s: %v", r.Spec.Key, r.Err)
					}
					for i, want := range r.Result.Records {
						got, w, err := e.Replay(r.Spec, i, want.Target)
						if err != nil {
							t.Fatalf("%s: replay %d: %v", r.Spec.Key, i, err)
						}
						if !sameRecord(got, want) {
							t.Fatalf("%s: replay of run %d differs from the runner's record:\n  runner %+v\n  replay %+v", r.Spec.Key, i, want, got)
						}
						if err := vfs.WriteFile(w, probe, []byte("caller's own")); err != nil {
							t.Fatalf("%s: write to replayed world: %v", r.Spec.Key, err)
						}
					}
				}
				snap, err := e.prep(specs[0].worldKey(), specs[0].Workload).snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if vfs.Exists(snap.Pristine(), probe) {
					t.Fatal("a write to a replayed world reached the snapshot")
				}
				_, w, err := e.Replay(specs[0], 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				if vfs.Exists(w, probe) {
					t.Fatal("a write to a replayed world reached a later replay")
				}
			})
		}
	}

	e := &Engine{}
	spec := CampaignSpec{Workload: readWorkload(), Config: CampaignConfig{Fault: Config{Model: BitFlip}}}
	count, err := e.Profile(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []int64{-1, count} {
		if _, _, err := e.Replay(spec, 0, target); err == nil {
			t.Errorf("Replay at target %d of %d succeeded", target, count)
		}
	}
	idle := CampaignSpec{
		Workload: Workload{Name: "idle", Run: func(vfs.FS) error { return nil }},
		Config:   CampaignConfig{Fault: Config{Model: BitFlip}},
	}
	if _, _, err := e.Replay(idle, 0, 0); !errors.Is(err, ErrNoTargets) {
		t.Errorf("Replay of a spec with no targets: %v, want ErrNoTargets", err)
	}
}
