package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// reuseWorld is one fixture of the record-reuse equivalence test: a world
// on which every registered model, write- and read-hosted alike, profiles
// a handful of targets.
type reuseWorld struct {
	name string
	w    Workload
	arm  []string
}

func reuseWorlds() []reuseWorld {
	return []reuseWorld{
		// 2 write instances, 9 read instances.
		{name: "flat", w: readWorkload()},
		// 1 write instance on /scratch, 1 read instance on /input.
		{name: "tiered", w: tieredWorkload(), arm: []string{"/input", "/scratch"}},
	}
}

// sameRecord compares two run records field for field; run errors compare
// by message, since a reused record shares its error value with the run
// it was copied from while a fresh execution builds its own.
func sameRecord(a, b RunRecord) bool {
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	if errText(a.RunErr) != errText(b.RunErr) {
		return false
	}
	a.RunErr, b.RunErr = nil, nil
	return reflect.DeepEqual(a, b)
}

// TestReusedRecordsMatchFreshRuns pins the record memo to fresh execution:
// for every registered model on a flat and a mount-armed tiered world,
// with far more runs than targets, the Runner's records equal a fresh run
// of each index at Jobs 1 and 8. A run whose fresh execution drew from its
// RNG stream is never reused, and at Jobs 1 — where runs execute one at a
// time — every draw-free repeat of an earlier draw-free target is.
func TestReusedRecordsMatchFreshRuns(t *testing.T) {
	const runs, seed = 60, 2024
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
				bus := NewEventBus()
				var mu sync.Mutex
				reused := map[string]map[int]bool{}
				bus.Subscribe(1<<16, func(ev Event) {
					if ev.Kind != EventRunReused {
						return
					}
					mu.Lock()
					defer mu.Unlock()
					if reused[ev.Key] == nil {
						reused[ev.Key] = map[int]bool{}
					}
					reused[ev.Key][ev.Index] = true
				})
				grid := (&Engine{Jobs: jobs, Events: bus}).Run(specs)
				bus.Close()
				for _, r := range grid {
					if r.Err != nil {
						t.Fatalf("%s: %v", r.Spec.Key, r.Err)
					}
					checkAgainstFresh(t, r, reused[r.Spec.Key], jobs == 1)
				}
			})
		}
	}
}

// checkAgainstFresh re-executes every index of one campaign on a freshly
// built world and compares. exact asserts the Jobs 1 reuse set: a run is
// reused if and only if it drew nothing and an earlier draw-free run had
// its target.
func checkAgainstFresh(t *testing.T, r GridResult, reused map[int]bool, exact bool) {
	t.Helper()
	cfg, key := r.Spec.Config, r.Spec.Key
	sig := cfg.Fault.Signature()
	if len(r.Result.Records) != cfg.Runs {
		t.Fatalf("%s: %d records, want %d", key, len(r.Result.Records), cfg.Runs)
	}
	if int64(cfg.Runs) <= 4*r.Result.ProfileCount {
		t.Fatalf("%s: %d runs over %d targets repeat too few targets to exercise the memo", key, cfg.Runs, r.Result.ProfileCount)
	}
	known := map[int64]bool{} // targets of earlier draw-free runs
	for i, got := range r.Result.Records {
		rng := runStream(cfg.Seed, i)
		target := rng.Int64n(r.Result.ProfileCount)
		want, drew, err := runOnceDrew(r.Spec.Workload, sig, target, rng, cfg.ArmMounts...)
		if err != nil {
			t.Fatalf("%s: fresh run %d: %v", key, i, err)
		}
		want.Index = i
		if !sameRecord(got, want) {
			t.Fatalf("%s: run %d (reused %v) differs from a fresh execution:\n  runner %+v\n  fresh  %+v", key, i, reused[i], got, want)
		}
		if drew && reused[i] {
			t.Fatalf("%s: run %d drew from its RNG stream but was reused", key, i)
		}
		if exact && reused[i] != (!drew && known[target]) {
			t.Fatalf("%s: run %d reused=%v, want %v at Jobs 1 (drew %v, target %d seen %v)", key, i, reused[i], !reused[i], drew, target, known[target])
		}
		if !drew {
			known[target] = true
		}
	}
	if m := sig.Model; exact && (m == DroppedWrite || m == ShornWrite) && len(reused) == 0 {
		t.Fatalf("%s: no run was reused at Jobs 1", key)
	}
}
