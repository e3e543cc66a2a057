package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ffis/internal/vfs"
)

// writeTrio is the paper's Table I write vocabulary, the model axis the
// engine determinism tests sweep.
func writeTrio() []Model { return []Model{BitFlip, ShornWrite, DroppedWrite} }

// requireSameResult asserts two campaign results are bit-for-bit the same
// observation: identical profile counts, tallies, and per-run records
// (target draw, outcome, fired flag, and the full Mutation).
func requireSameResult(t *testing.T, label string, a, b CampaignResult) {
	t.Helper()
	if a.ProfileCount != b.ProfileCount {
		t.Fatalf("%s: profile count %d vs %d", label, a.ProfileCount, b.ProfileCount)
	}
	if a.Tally != b.Tally {
		t.Fatalf("%s: tally %s vs %s", label, a.Tally.String(), b.Tally.String())
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("%s: %d vs %d records", label, len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		ra, rb := a.Records[i], b.Records[i]
		if ra.Index != rb.Index || ra.Target != rb.Target || ra.Outcome != rb.Outcome || ra.Fired != rb.Fired {
			t.Fatalf("%s: run %d diverged: %+v vs %+v", label, i, ra, rb)
		}
		if ra.Mutation != rb.Mutation {
			t.Fatalf("%s: run %d mutation diverged:\n  %s\n  %s", label, i, ra.Mutation, rb.Mutation)
		}
	}
}

// TestCampaignDeterminismHarness is the table-driven determinism contract:
// for every fault model, on both a flat and a tiered (mount-armed) world,
// the same seed must produce identical tallies and identical per-run
// Mutation records whether runs execute serially or on eight workers — and
// whether worlds are COW clones or full per-run rebuilds (the same world
// over an unclonable plainFS backend).
func TestCampaignDeterminismHarness(t *testing.T) {
	type tc struct {
		name      string
		workload  func() Workload
		rebuilt   func() Workload
		armMounts []string
	}
	cases := []tc{
		{name: "flat", workload: toyWorkload, rebuilt: func() Workload {
			w := toyWorkload()
			w.NewFS = newPlainFS
			return w
		}},
		{name: "tiered-scratch", workload: tieredWorkload, armMounts: []string{"/scratch"},
			rebuilt: func() Workload { return tieredWorkloadOn(newPlainFS) }},
	}
	for _, c := range cases {
		for _, model := range writeTrio() {
			c, model := c, model
			t.Run(fmt.Sprintf("%s/%s", c.name, model.Short()), func(t *testing.T) {
				run := func(w Workload, workers int) CampaignResult {
					res, err := runCampaign(workers, CampaignConfig{
						Fault:     Config{Model: model},
						Runs:      24,
						Seed:      4242,
						ArmMounts: c.armMounts,
					}, w)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				serial := run(c.workload(), 1)
				parallel := run(c.workload(), 8)
				requireSameResult(t, "workers 1 vs 8", serial, parallel)
				rebuilt := run(c.rebuilt(), 8)
				requireSameResult(t, "COW vs rebuilt worlds", serial, rebuilt)
			})
		}
	}
}

// gridSpecs builds a small heterogeneous grid: two worlds × three models.
func gridSpecs(runs int) []CampaignSpec {
	var specs []CampaignSpec
	for _, w := range []Workload{toyWorkload(), tieredWorkload()} {
		for _, model := range writeTrio() {
			var arm []string
			if w.NewFS != nil {
				arm = []string{"/scratch"}
			}
			specs = append(specs, CampaignSpec{
				Key:      w.Name + "/" + model.Short(),
				Workload: w,
				Config: CampaignConfig{
					Fault:     Config{Model: model},
					Runs:      runs,
					Seed:      7,
					ArmMounts: arm,
				},
			})
		}
	}
	return specs
}

// TestEngineOrderIndependence asserts grid results depend only on the specs
// themselves: reversing submission order and changing the pool width must
// reproduce every cell bit-for-bit.
func TestEngineOrderIndependence(t *testing.T) {
	specs := gridSpecs(16)
	byKey := func(results []GridResult) map[string]CampaignResult {
		out := map[string]CampaignResult{}
		for _, r := range results {
			if r.Err != nil {
				t.Fatalf("%s: %v", r.Spec.Key, r.Err)
			}
			out[r.Spec.Key] = r.Result
		}
		return out
	}
	base := byKey((&Engine{Jobs: 4}).Run(specs))

	reversed := make([]CampaignSpec, len(specs))
	for i, s := range specs {
		reversed[len(specs)-1-i] = s
	}
	for _, jobs := range []int{1, 3, 8} {
		got := byKey((&Engine{Jobs: jobs}).Run(reversed))
		if len(got) != len(base) {
			t.Fatalf("jobs=%d: %d cells, want %d", jobs, len(got), len(base))
		}
		for key, want := range base {
			requireSameResult(t, fmt.Sprintf("jobs=%d %s", jobs, key), want, got[key])
		}
	}
}

// TestEngineMatchesCampaign pins the one-spec grid on GOMAXPROCS slots
// that single-campaign tests run (runCampaign) to the same spec on a
// two-slot engine under the same seed.
func TestEngineMatchesCampaign(t *testing.T) {
	cfg := CampaignConfig{Fault: Config{Model: BitFlip}, Runs: 20, Seed: 99}
	direct, err := runCampaign(0, cfg, toyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	grid := (&Engine{Jobs: 2}).Run([]CampaignSpec{{Key: "solo", Workload: toyWorkload(), Config: cfg}})
	if grid[0].Err != nil {
		t.Fatal(grid[0].Err)
	}
	requireSameResult(t, "engine vs campaign", direct, grid[0].Result)
}

// TestEngineMixedWorldModes pins the memoization boundary: in one grid, a
// spec whose world clones and a spec whose world cannot (plainFS) each get
// their own world mode and still produce identical results under the same
// seed.
func TestEngineMixedWorldModes(t *testing.T) {
	cfg := CampaignConfig{Fault: Config{Model: BitFlip}, Runs: 12, Seed: 3}
	rebuilt := toyWorkload()
	rebuilt.NewFS = newPlainFS
	e := &Engine{Jobs: 2}
	specs := []CampaignSpec{
		{Key: "cow", WorldKey: "cow", Workload: toyWorkload(), Config: cfg},
		{Key: "rebuilt", WorldKey: "rebuilt", Workload: rebuilt, Config: cfg},
	}
	grid := e.Run(specs)
	for _, r := range grid {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Spec.Key, r.Err)
		}
	}
	for i, wantCOW := range []bool{true, false} {
		snap, err := e.prep(specs[i].worldKey(), specs[i].Workload).snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if (snap.pristine != nil) != wantCOW {
			t.Fatalf("%s: snapshot COW = %v, want %v", specs[i].Key, snap.pristine != nil, wantCOW)
		}
	}
	requireSameResult(t, "cow vs rebuilt in one grid", grid[0].Result, grid[1].Result)
}

// TestEngineMemoizesWorldAndProfile counts Setup and Run executions: three
// fault models sharing a WorldKey must trigger exactly one Setup (the COW
// snapshot) and one profiling Run — the rest of the Run calls are the
// injection runs that executed rather than reused a record.
func TestEngineMemoizesWorldAndProfile(t *testing.T) {
	var setups, runs atomic.Int64
	golden := []byte("engine memoization probe")
	w := Workload{
		Name: "memo",
		Setup: func(fs vfs.FS) error {
			setups.Add(1)
			return fs.MkdirAll("/out")
		},
		Run: func(fs vfs.FS) error {
			runs.Add(1)
			return vfs.WriteFile(fs, "/out/data", golden)
		},
	}
	const runsPerSpec = 10
	var specs []CampaignSpec
	for _, model := range writeTrio() {
		specs = append(specs, CampaignSpec{
			Key:      "memo/" + model.Short(),
			WorldKey: "memo-world",
			Workload: w,
			Config:   CampaignConfig{Fault: Config{Model: model}, Runs: runsPerSpec, Seed: 1},
		})
	}
	bus := NewEventBus()
	var executed, reused atomic.Int64
	bus.Subscribe(1<<10, func(ev Event) {
		switch ev.Kind {
		case EventRunReused:
			reused.Add(1)
		case EventRunDone:
			executed.Add(1)
		}
	})
	for _, r := range (&Engine{Jobs: 4, Events: bus}).Run(specs) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Spec.Key, r.Err)
		}
		if r.Result.Tally.Total() != runsPerSpec {
			t.Fatalf("%s: tally %d", r.Spec.Key, r.Result.Tally.Total())
		}
	}
	bus.Close()
	if got := setups.Load(); got != 1 {
		t.Fatalf("Setup executed %d times, want 1 (COW snapshot not shared)", got)
	}
	if got := executed.Load() + reused.Load(); got != int64(len(specs)*runsPerSpec) {
		t.Fatalf("%d RunDone/RunReused events, want %d", got, len(specs)*runsPerSpec)
	}
	// One shared profiling pass (all three models target the write
	// primitive) plus the injection runs that executed.
	if got, want := runs.Load(), 1+executed.Load(); got != want {
		t.Fatalf("Run executed %d times, want %d (profile not memoized)", got, want)
	}
}

// TestEngineWorkloadBuildsOncePerKey pins Engine.Workload: build runs once
// per world key across calls, and never for a key an earlier Run already
// registered — the held workload comes back instead.
func TestEngineWorkloadBuildsOncePerKey(t *testing.T) {
	e := &Engine{Jobs: 2}
	ran := toyWorkload()
	ran.Name = "registered-by-run"
	spec := CampaignSpec{Key: "toy/BF", WorldKey: "run-world", Workload: ran,
		Config: CampaignConfig{Fault: Config{Model: BitFlip}, Runs: 2, Seed: 1}}
	if r := e.Run([]CampaignSpec{spec})[0]; r.Err != nil {
		t.Fatal(r.Err)
	}

	var builds int
	build := func(name string) func() (Workload, error) {
		return func() (Workload, error) {
			builds++
			w := toyWorkload()
			w.Name = name
			return w, nil
		}
	}
	got, err := e.Workload("run-world", build("rebuilt"))
	if err != nil || got.Name != "registered-by-run" || builds != 0 {
		t.Fatalf("key registered by Run: got %q (err %v) after %d builds, want the held workload and no build", got.Name, err, builds)
	}
	for i := 0; i < 3; i++ {
		got, err := e.Workload("fresh-world", build(fmt.Sprintf("build-%d", i)))
		if err != nil || got.Name != "build-0" {
			t.Fatalf("call %d: got %q (err %v), want the first build", i, got.Name, err)
		}
	}
	if builds != 1 {
		t.Fatalf("build ran %d times for one key, want 1", builds)
	}
	if _, err := e.Workload("broken-world", func() (Workload, error) { return Workload{}, errors.New("boom") }); err == nil {
		t.Fatal("a failed build must surface its error")
	}
	if got, err := e.Workload("broken-world", build("after-failure")); err != nil || got.Name != "after-failure" {
		t.Fatalf("a failed build must not register the key: got %q (err %v)", got.Name, err)
	}

	// Concurrent first calls may each build, but all of them get the one
	// workload that was registered.
	names := make([]string, 8)
	var wg sync.WaitGroup
	for i := range names {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, err := e.Workload("contended-world", func() (Workload, error) {
				return Workload{Name: fmt.Sprintf("racer-%d", i)}, nil
			})
			if err != nil {
				t.Error(err)
			}
			names[i] = w.Name
		}(i)
	}
	wg.Wait()
	for _, n := range names {
		if n != names[0] {
			t.Fatalf("concurrent callers got different workloads: %v", names)
		}
	}
}

// TestEngineNoTargetsDoesNotAbortGrid mirrors the tiered sweep's starved
// placement: a cell armed on an idle tier reports ErrNoTargets while its
// siblings complete normally.
func TestEngineNoTargetsDoesNotAbortGrid(t *testing.T) {
	w := tieredWorkload()
	specs := []CampaignSpec{
		{Key: "live", WorldKey: "tt", Workload: w,
			Config: CampaignConfig{Fault: Config{Model: BitFlip}, Runs: 6, Seed: 5, ArmMounts: []string{"/scratch"}}},
		{Key: "starved", WorldKey: "tt", Workload: w,
			Config: CampaignConfig{Fault: Config{Model: BitFlip}, Runs: 6, Seed: 5, ArmMounts: []string{"/input"}}},
	}
	results := (&Engine{Jobs: 2}).Run(specs)
	if results[0].Err != nil {
		t.Fatalf("live cell: %v", results[0].Err)
	}
	if results[0].Result.Tally.Total() != 6 {
		t.Fatalf("live cell tally %d", results[0].Result.Tally.Total())
	}
	if !errors.Is(results[1].Err, ErrNoTargets) {
		t.Fatalf("starved cell err = %v, want ErrNoTargets", results[1].Err)
	}
}

// TestEngineEventStream checks the structured event stream: every campaign
// is bracketed by one SpecStart and one terminal SpecDone carrying the
// result, RunDone Done counts are per-campaign monotone, and totals match
// Runs.
func TestEngineEventStream(t *testing.T) {
	bus := NewEventBus()
	var mu sync.Mutex
	var events []Event
	bus.Subscribe(0, func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	e := &Engine{Jobs: 3, Events: bus}
	specs := gridSpecs(8)
	results := e.Run(specs)
	bus.Close()
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Spec.Key, r.Err)
		}
	}
	starts := map[string]int{}
	lastDone := map[string]int{}
	finals := map[string]*CampaignResult{}
	for _, ev := range events {
		switch ev.Kind {
		case EventSpecStart:
			starts[ev.Key]++
			if ev.Total != 8 || ev.Runs != 8 {
				t.Fatalf("%s: SpecStart total/runs %d/%d, want 8/8", ev.Key, ev.Total, ev.Runs)
			}
			if ev.ProfileCount <= 0 {
				t.Fatalf("%s: SpecStart profile count %d", ev.Key, ev.ProfileCount)
			}
		case EventRunDone, EventRunReused:
			if ev.Total != 8 {
				t.Fatalf("%s: RunDone total %d, want 8", ev.Key, ev.Total)
			}
			if ev.Done <= lastDone[ev.Key] {
				t.Fatalf("%s: Done not monotone (%d after %d)", ev.Key, ev.Done, lastDone[ev.Key])
			}
			lastDone[ev.Key] = ev.Done
			if ev.Index < 0 || ev.Index >= 8 {
				t.Fatalf("%s: RunDone index %d", ev.Key, ev.Index)
			}
		case EventSpecDone:
			if ev.Err != nil {
				t.Fatalf("%s: terminal error %v", ev.Key, ev.Err)
			}
			if finals[ev.Key] != nil {
				t.Fatalf("%s: two terminal events", ev.Key)
			}
			finals[ev.Key] = ev.Result
		}
	}
	for _, s := range specs {
		if starts[s.Key] != 1 {
			t.Fatalf("%s: %d SpecStart events, want 1", s.Key, starts[s.Key])
		}
		res := finals[s.Key]
		if res == nil {
			t.Fatalf("%s: no terminal event", s.Key)
		}
		if res.Tally.Total() != 8 {
			t.Fatalf("%s: terminal tally %d", s.Key, res.Tally.Total())
		}
	}
}

// TestWorldSnapshotModes pins the snapshot fallback logic: clonable worlds
// report COW and serve clones; a world with an unclonable backend degrades
// to rebuild-per-run without error.
func TestWorldSnapshotModes(t *testing.T) {
	snap, err := NewWorldSnapshot(toyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if snap.pristine == nil {
		t.Fatal("MemFS world should snapshot as COW")
	}
	if snap.Pristine() == nil {
		t.Fatal("COW snapshot should expose its pristine world")
	}

	var setups atomic.Int64
	unclonable := Workload{
		Name: "os-backed",
		NewFS: func() (vfs.FS, error) {
			m := vfs.NewMountFS(vfs.NewMemFS())
			if err := m.Mount("/host", plainFS{vfs.NewMemFS()}); err != nil {
				return nil, err
			}
			return m, nil
		},
		Setup: func(fs vfs.FS) error { setups.Add(1); return nil },
		Run:   func(fs vfs.FS) error { return vfs.WriteFile(fs, "/f", []byte("x")) },
	}
	snap, err = NewWorldSnapshot(unclonable)
	if err != nil {
		t.Fatal(err)
	}
	if snap.pristine != nil {
		t.Fatal("unclonable backend should force rebuild mode")
	}
	if snap.Pristine() != nil {
		t.Fatal("rebuild mode has no pristine world")
	}
	worlds := map[vfs.FS]bool{}
	for i := 0; i < 3; i++ {
		w, err := snap.World()
		if err != nil {
			t.Fatal(err)
		}
		if worlds[w] {
			t.Fatal("rebuild mode handed out the same world twice")
		}
		worlds[w] = true
	}
	// One Setup per world, including the clonability-probe build the first
	// World() call recycles — no wasted rebuilds.
	if got := setups.Load(); got != 3 {
		t.Fatalf("Setup ran %d times for 3 worlds, want 3", got)
	}
}

// plainFS hides MemFS's Cloner implementation, standing in for an OSFS-like
// backend: a world built on it cannot be cloned, so its snapshot rebuilds
// the world (NewFS + Setup) for every run — the paper's remount-per-run.
type plainFS struct{ vfs.FS }

// newPlainFS is a Workload.NewFS building a flat world that cannot be
// cloned.
func newPlainFS() (vfs.FS, error) { return plainFS{vfs.NewMemFS()}, nil }

// TestSweepPlumbsArmMounts is the regression test for the tiered-ablation
// fix: a sweep over a mounted world must profile (and inject) only the I/O
// routed to the armed tier, not the whole flat world.
func TestSweepPlumbsArmMounts(t *testing.T) {
	w := tieredWorkload()
	sig := Config{Model: BitFlip}.Signature()
	armed, err := profileArmed(w, sig, "/scratch")
	if err != nil {
		t.Fatal(err)
	}
	whole, err := profileArmed(w, sig)
	if err != nil {
		t.Fatal(err)
	}
	if armed == 0 || armed >= whole {
		t.Fatalf("scratch tier profile %d should be a proper nonzero subset of the whole world's %d", armed, whole)
	}

	flips := map[string]Config{}
	for _, bits := range []int{1, 2, 4, 8} {
		flips[fmt.Sprintf("flip%d", bits)] = Config{Model: BitFlip, Feature: Feature{FlipBits: bits}}
	}
	results, err := Sweep(flips, CampaignConfig{
		Runs:      6,
		Seed:      2,
		ArmMounts: []string{"/scratch"},
	}, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.ProfileCount != armed {
			t.Fatalf("%s: profile count %d — sweep dropped ArmMounts (whole world would be %d)",
				r.Workload, r.ProfileCount, whole)
		}
		for _, rec := range r.Records {
			if rec.Fired && rec.Mutation.Path != "/scratch/mid.dat" {
				t.Fatalf("%s: fault fired outside the armed tier: %s", r.Workload, rec.Mutation)
			}
		}
	}
}
