package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"ffis/internal/vfs"
)

// CampaignSpec is one cell of an Engine grid: a workload under one fault
// configuration (cell × model × placement in the Figure 7 + tiered
// vocabulary).
type CampaignSpec struct {
	// Key uniquely labels the cell in results and progress events, e.g.
	// "nyx/bf/scratch-only". Empty labels every event of the spec with
	// Workload.Name.
	Key string
	// WorldKey groups specs that share a storage world for memoization:
	// specs with equal WorldKeys run on clones of ONE post-Setup snapshot
	// and share profile counts and golden snapshots, so they must have
	// identical NewFS and Setup. Specs built through Engine.Workload share
	// the whole registered workload, Run and Classify included, so a key
	// must separate everything the workload does (experiments.WireSpec's
	// key separates the Nyx average-value classifier, for one). Within one
	// Engine.Run call they also share Worker pairs: a run of one spec may
	// take a pair another spec's Worker built, so their Workers must be
	// interchangeable. Empty
	// defaults to Workload.Name, which is only safe while every same-named
	// spec builds the same workload; grids mixing flat and tiered variants
	// of one application must set it.
	WorldKey string
	Workload Workload
	// Config drives the campaign. The engine's shared pool (Engine.Jobs)
	// bounds parallelism across the whole grid.
	Config CampaignConfig
}

func (s CampaignSpec) worldKey() string {
	if s.WorldKey != "" {
		return s.WorldKey
	}
	return s.Workload.Name
}

// GridResult pairs a spec with its campaign outcome. Err is ErrNoTargets
// (test with errors.Is) when the armed scope receives none of the
// workload's I/O.
type GridResult struct {
	Spec   CampaignSpec
	Result CampaignResult
	Err    error
}

// Engine schedules a grid of fault-injection campaigns over one shared
// bounded worker pool and runs each campaign's loop itself (runSpec). It
// is the only campaign driver: a single campaign is a one-spec grid, and
// persisted grids and distributed workers hand it their specs. Setup
// executes once per world (not once per run), every injection run
// receives a copy-on-write clone of the post-Setup snapshot (or a rebuilt
// world when the world cannot be cloned), profile counts and golden
// snapshots are memoized by (world, mounts) key across cells, and all runs
// of all campaigns share one pool so the grid saturates the machine
// regardless of how unevenly cells are sized.
//
// Determinism: each run's RNG stream is derived purely from the campaign
// seed and the run index (runStream), and results are reported in spec
// order, so grid results are independent of Jobs, scheduling interleavings,
// and the order specs are submitted in.
type Engine struct {
	// Jobs bounds concurrently executing work items (setup/profile passes
	// and injection runs) across the whole grid; <= 0 selects GOMAXPROCS.
	Jobs int
	// Events, when non-nil, receives the structured run-lifecycle stream
	// of every campaign the engine runs. Streams for different campaigns
	// interleave, but each subscriber sees a single serialized order and
	// its callback never runs concurrently with itself.
	Events *EventBus

	mu       sync.Mutex
	prepared map[string]*enginePrep
}

// enginePrep is the per-world memoization record: the post-Setup snapshot
// (COW, or rebuild-per-run for a world that cannot be cloned) plus profile
// counts keyed within it.
type enginePrep struct {
	w        Workload                       // the workload that builds this world (first spec wins)
	snapshot func() (*WorldSnapshot, error) // built once, on first call

	mu       sync.Mutex
	profiles map[string]func() (int64, error)
}

func (e *Engine) jobs() int {
	if e.Jobs > 0 {
		return e.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// prep returns (creating on first use) the memoization record for key.
func (e *Engine) prep(key string, w Workload) *enginePrep {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.prepared == nil {
		e.prepared = map[string]*enginePrep{}
	}
	p, ok := e.prepared[key]
	if !ok {
		p = &enginePrep{
			w:        w,
			snapshot: sync.OnceValues(func() (*WorldSnapshot, error) { return NewWorldSnapshot(w) }),
			profiles: map[string]func() (int64, error){},
		}
		e.prepared[key] = p
	}
	return p
}

// Workload returns the workload the engine holds for worldKey — the one
// an earlier Run or Workload call registered — and otherwise builds one
// with build and registers it. A caller that runs many specs over the same
// world, such as a distributed worker serving successive leases, thereby
// builds each application once per engine instead of once per spec.
func (e *Engine) Workload(worldKey string, build func() (Workload, error)) (Workload, error) {
	e.mu.Lock()
	p, ok := e.prepared[worldKey]
	e.mu.Unlock()
	if ok {
		return p.w, nil
	}
	w, err := build()
	if err != nil {
		return Workload{}, err
	}
	return e.prep(worldKey, w).w, nil
}

// profileCount memoizes the fault-free profiling pass by (primitive,
// mounts) within the world — the count does not depend on the fault
// model's mutation details, so three fault models targeting the write
// primitive on the same world cost one profiling run, not three.
func (p *enginePrep) profileCount(sig Signature, mounts []string) (int64, error) {
	snap, err := p.snapshot()
	if err != nil {
		return 0, err
	}
	key := string(sig.Model.Host()) + "\x00" + strings.Join(mounts, "\x00")
	p.mu.Lock()
	count, ok := p.profiles[key]
	if !ok {
		count = sync.OnceValues(func() (int64, error) {
			world, err := snap.World()
			if err != nil {
				return 0, err
			}
			return profileWorld(world, p.w, sig, mounts)
		})
		p.profiles[key] = count
	}
	p.mu.Unlock()
	return count()
}

// Run executes every spec of the grid and returns results in spec order.
// Campaign failures are reported per cell in GridResult.Err; the grid keeps
// going, so one starved placement (ErrNoTargets) does not abort the sweep.
// The specs of one world key share at most Jobs Worker pairs, which die
// when Run returns: pairs kept longer would hold their scratch on the
// engine between grids and start a later grid warm from an earlier one.
func (e *Engine) Run(specs []CampaignSpec) []GridResult {
	sem := make(chan struct{}, e.jobs())
	idle := map[string]chan Workload{}
	for _, spec := range specs {
		if idle[spec.worldKey()] == nil {
			idle[spec.worldKey()] = make(chan Workload, cap(sem))
		}
	}
	out := make([]GridResult, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		i, spec := i, spec
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.runSpec(spec, sem, idle[spec.worldKey()])
			out[i] = GridResult{Spec: spec, Result: res, Err: err}
		}()
	}
	wg.Wait()
	return out
}

// Profile returns the spec's target count: the memoized fault-free
// profiling pass of its world, restricted to its armed mounts — the count
// every run of the spec draws its target from.
func (e *Engine) Profile(spec CampaignSpec) (int64, error) {
	sig := spec.Config.Fault.Signature()
	if err := sig.Validate(); err != nil {
		return 0, err
	}
	return e.prep(spec.worldKey(), spec.Workload).profileCount(sig, spec.Config.ArmMounts)
}

// profiled returns the spec's target count and its world's snapshot,
// failing with ErrNoTargets when the armed scope never executes the
// target primitive.
func (e *Engine) profiled(spec CampaignSpec) (int64, *WorldSnapshot, error) {
	count, err := e.Profile(spec)
	switch {
	case err != nil:
		return 0, nil, err
	case count == 0:
		return 0, nil, ErrNoTargets
	}
	snap, _ := e.prep(spec.worldKey(), spec.Workload).snapshot() // built and error-checked by Profile
	return count, snap, nil
}

// Replay executes run index of spec at target: one injection through the
// campaign's own arm-run-classify path (runOnceTimed) on a clone of the
// spec's memoized snapshot, with run index's RNG stream advanced past its
// target draw exactly as runSpec advances it. Replay(spec, i, rec.Target)
// therefore reproduces record i of the campaign; any other target runs the
// fault the campaign would have run there. It returns the record and the
// world the run left behind, which the caller owns: no block list is
// attached and nothing else holds it. Replay publishes no events and holds
// no pool slot. A spec whose armed scope never executes the target
// primitive fails with ErrNoTargets.
func (e *Engine) Replay(spec CampaignSpec, index int, target int64) (RunRecord, vfs.FS, error) {
	count, snap, err := e.profiled(spec)
	switch {
	case err != nil:
		return RunRecord{}, nil, err
	case target < 0 || target >= count:
		return RunRecord{}, nil, fmt.Errorf("core: target %d outside the %d profiled instances", target, count)
	}
	world, err := snap.World()
	if err != nil {
		return RunRecord{}, nil, err
	}
	cfg := spec.Config
	rng := runStream(cfg.Seed, index)
	rng.Int64n(count) // the run's own target draw
	rec, err := runOnceTimed(world, spec.Workload, NewInjector(cfg.Fault.Signature(), target, rng), cfg.ArmMounts, new(stageTimes))
	if err != nil {
		return RunRecord{}, nil, err
	}
	rec.Index = index
	return rec, world, nil
}
