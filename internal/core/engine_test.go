package core

import (
	"errors"
	"fmt"
	"strings"
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
// Mutation records whether runs execute serially or on eight workers, and
// those of the reference loop, which rebuilds the world for every run
// (referenceRecords).
func TestCampaignDeterminismHarness(t *testing.T) {
	type tc struct {
		name      string
		workload  func() Workload
		armMounts []string
	}
	cases := []tc{
		{name: "flat", workload: toyWorkload},
		{name: "tiered-scratch", workload: tieredWorkload, armMounts: []string{"/scratch"}},
	}
	for _, c := range cases {
		for _, model := range writeTrio() {
			c, model := c, model
			t.Run(fmt.Sprintf("%s/%s", c.name, model.Short()), func(t *testing.T) {
				cfg := CampaignConfig{
					Fault:     Config{Model: model},
					Runs:      24,
					Seed:      4242,
					ArmMounts: c.armMounts,
				}
				run := func(workers int) CampaignResult {
					res, err := runCampaign(workers, cfg, c.workload())
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				serial := run(1)
				requireSameResult(t, "workers 1 vs 8", serial, run(8))
				ref, err := referenceRecords(CampaignSpec{Workload: c.workload(), Config: cfg})
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, "engine vs reference", serial, ref)
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

// TestEngineMixedWorldModes pins the one world mode: in one grid, a spec
// whose world cannot be cloned (plainFS) fails at profiling with an error
// wrapping vfs.ErrNotClonable, which its terminal SpecDone carries, while
// a sibling spec whose world clones completes.
func TestEngineMixedWorldModes(t *testing.T) {
	cfg := CampaignConfig{Fault: Config{Model: BitFlip}, Runs: 12, Seed: 3}
	unclonable := toyWorkload()
	unclonable.NewFS = newPlainFS
	bus := NewEventBus()
	var mu sync.Mutex
	done := map[string]Event{}
	bus.Subscribe(0, func(ev Event) {
		if ev.Kind == EventSpecDone {
			mu.Lock()
			done[ev.Key] = ev
			mu.Unlock()
		}
	})
	grid := (&Engine{Jobs: 2, Events: bus}).Run([]CampaignSpec{
		{Key: "cow", WorldKey: "cow", Workload: toyWorkload(), Config: cfg},
		{Key: "unclonable", WorldKey: "unclonable", Workload: unclonable, Config: cfg},
	})
	bus.Close()
	if err := grid[0].Err; err != nil {
		t.Fatalf("cow: %v", err)
	}
	if got := grid[0].Result.Tally.Total(); got != cfg.Runs {
		t.Fatalf("cow: tally covers %d runs, want %d", got, cfg.Runs)
	}
	if err := grid[1].Err; !errors.Is(err, vfs.ErrNotClonable) {
		t.Fatalf("unclonable: err = %v, want vfs.ErrNotClonable", err)
	}
	if got := grid[1].Result.ProfileCount; got != 0 {
		t.Fatalf("unclonable: profiled %d targets; it must fail before profiling", got)
	}
	if ev := done["unclonable"]; !errors.Is(ev.Err, vfs.ErrNotClonable) {
		t.Fatalf("unclonable: SpecDone err = %v, want vfs.ErrNotClonable", ev.Err)
	}
	if ev := done["cow"]; ev.Err != nil || ev.Result == nil {
		t.Fatalf("cow: SpecDone err %v, result %v", ev.Err, ev.Result)
	}
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

// TestWorldSnapshotModes pins the one world mode: a snapshot runs Setup
// once and serves a distinct clone to every World() call, and a world that
// cannot be cloned — its root or one of its mounts — fails
// NewWorldSnapshot with an error wrapping vfs.ErrNotClonable that names
// the workload.
func TestWorldSnapshotModes(t *testing.T) {
	var setups atomic.Int64
	w := toyWorkload()
	setup := w.Setup
	w.Setup = func(fs vfs.FS) error { setups.Add(1); return setup(fs) }
	snap, err := NewWorldSnapshot(w)
	if err != nil {
		t.Fatal(err)
	}
	worlds := map[vfs.FS]bool{}
	for i := 0; i < 3; i++ {
		fs, err := snap.World()
		if err != nil {
			t.Fatal(err)
		}
		if worlds[fs] {
			t.Fatal("the snapshot handed out the same world twice")
		}
		worlds[fs] = true
		if !vfs.Exists(fs, "/out") {
			t.Fatal("a clone lost the post-Setup state")
		}
	}
	if got := setups.Load(); got != 1 {
		t.Fatalf("Setup ran %d times for 3 worlds, want 1", got)
	}

	mounted := Workload{
		Name: "os-backed",
		NewFS: func() (vfs.FS, error) {
			m := vfs.NewMountFS(vfs.NewMemFS())
			if err := m.Mount("/host", plainFS{vfs.NewMemFS()}); err != nil {
				return nil, err
			}
			return m, nil
		},
		Run: func(fs vfs.FS) error { return vfs.WriteFile(fs, "/f", []byte("x")) },
	}
	flat := Workload{Name: "plain", NewFS: newPlainFS, Run: mounted.Run}
	for _, w := range []Workload{mounted, flat} {
		snap, err := NewWorldSnapshot(w)
		if snap != nil || !errors.Is(err, vfs.ErrNotClonable) || !strings.Contains(err.Error(), w.Name) {
			t.Fatalf("%s: NewWorldSnapshot = %v, %v; want an error wrapping vfs.ErrNotClonable naming the workload", w.Name, snap, err)
		}
	}
}

// plainFS hides MemFS's Cloner implementation, standing in for an OSFS-like
// backend: a world built on it cannot be cloned, so a campaign on it fails.
type plainFS struct{ vfs.FS }

// newPlainFS is a Workload.NewFS building a flat world that cannot be
// cloned.
func newPlainFS() (vfs.FS, error) { return plainFS{vfs.NewMemFS()}, nil }

// hookFS is a clonable MemFS world whose CloneFS calls hook first, and
// fails with its error: the probe with which tests count, fail or hold
// the worlds a snapshot serves. Call 1 is the snapshot's probe clone,
// which serves the profiling pass; every later call serves one run.
type hookFS struct {
	*vfs.MemFS
	hook func() error
}

func (h hookFS) CloneFS() (vfs.FS, error) {
	if err := h.hook(); err != nil {
		return nil, err
	}
	return h.MemFS.CloneFS()
}

// hookedWorld is a Workload.NewFS building a flat hookFS world.
func hookedWorld(hook func() error) func() (vfs.FS, error) {
	return func() (vfs.FS, error) { return hookFS{vfs.NewMemFS(), hook}, nil }
}

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
