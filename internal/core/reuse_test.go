package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"ffis/internal/classify"
	"ffis/internal/vfs"
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
// with far more runs than targets, the Engine's records equal a fresh run
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

// pairWorkload is a world of its own key: Setup writes the key, Run writes
// it back a thousand times over. Each pair its Worker builds is counted in
// built, and each classification of a world not of key in strays.
func pairWorkload(key string, built, strays *atomic.Int64) Workload {
	golden := bytes.Repeat([]byte(key), 1000)
	w := Workload{
		Name:  "pairs",
		Setup: func(fs vfs.FS) error { return vfs.WriteFile(fs, "/key", []byte(key)) },
		Run: func(fs vfs.FS) error {
			k, err := vfs.ReadFile(fs, "/key")
			if err != nil {
				return err
			}
			return vfs.WriteFile(fs, "/out", bytes.Repeat(k, 1000))
		},
		Classify: func(fs vfs.FS, runErr error) classify.Outcome {
			out, err := vfs.ReadFile(fs, "/out")
			switch {
			case runErr != nil || err != nil:
				return classify.Crash
			case bytes.Equal(out, golden):
				return classify.Benign
			case len(out) == len(golden):
				return classify.SDC
			}
			return classify.Detected
		},
	}
	w.Worker = func() (func(vfs.FS) error, func(vfs.FS, error) classify.Outcome) {
		built.Add(1)
		return w.Run, func(fs vfs.FS, runErr error) classify.Outcome {
			if k, _ := vfs.ReadFile(fs, "/key"); string(k) != key {
				strays.Add(1)
			}
			return w.Classify(fs, runErr)
		}
	}
	return w
}

// TestWorkerPairsSharedPerWorldKey: within one Engine.Run call, the specs
// of a world key take their Worker pairs from one set. At most Jobs pairs
// are built per key (one at Jobs 1, however many specs share it), no pair
// serves a world of another key, and every spec's records equal those of
// the spec run alone.
func TestWorkerPairsSharedPerWorldKey(t *testing.T) {
	keys := []string{"alpha", "beta"}
	models := []Model{BitFlip, ShornWrite, DroppedWrite, ReadBitFlip}
	for _, jobs := range []int{1, 8} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			built := map[string]*atomic.Int64{}
			var strays atomic.Int64
			var specs []CampaignSpec
			for _, key := range keys {
				built[key] = new(atomic.Int64)
				w := pairWorkload(key, built[key], &strays)
				for _, m := range models {
					specs = append(specs, CampaignSpec{
						Key: key + "/" + m.Short(), WorldKey: key, Workload: w,
						Config: CampaignConfig{Fault: Config{Model: m}, Runs: 40, Seed: 7},
					})
				}
			}
			grid := (&Engine{Jobs: jobs}).Run(specs)
			for _, key := range keys {
				n := built[key].Load()
				if n < 1 || n > int64(jobs) || jobs == 1 && n != 1 {
					t.Errorf("key %s: %d pairs built at Jobs %d", key, n, jobs)
				}
			}
			if n := strays.Load(); n != 0 {
				t.Errorf("%d runs classified a world of another key", n)
			}
			for _, g := range grid {
				alone := (&Engine{Jobs: jobs}).Run([]CampaignSpec{g.Spec})[0]
				if g.Err != nil || alone.Err != nil {
					t.Fatalf("%s: %v; alone: %v", g.Spec.Key, g.Err, alone.Err)
				}
				if len(g.Result.Records) != len(alone.Result.Records) {
					t.Fatalf("%s: %d records, alone %d", g.Spec.Key, len(g.Result.Records), len(alone.Result.Records))
				}
				for i, rec := range g.Result.Records {
					if !sameRecord(rec, alone.Result.Records[i]) {
						t.Fatalf("%s: run %d differs from the spec run alone:\n  shared %+v\n  alone  %+v", g.Spec.Key, i, rec, alone.Result.Records[i])
					}
				}
			}
		})
	}
}
