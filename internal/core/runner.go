package core

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"ffis/internal/classify"
	"ffis/internal/vfs"
)

// Runner owns the per-run campaign lifecycle — clone-or-rebuild the
// world, arm the injector, run the workload, classify the artifact,
// record and tally — for exactly one spec, parameterized by the
// CampaignConfig hooks (Sink and its resume point, Abort, Stop
// barriers). It is the only place in the tree that sequences those
// stages; Engine.runSpec is its one driver, supplying the memoized
// snapshot and profile count and the grid-wide worker pool, and every
// other layer (Campaign, persisted grids, distributed workers) reaches it
// through the Engine.
type Runner struct {
	// Key labels the spec's events; empty falls back to the workload name.
	Key      string
	Workload Workload
	// Config drives the campaign; the caller has already validated the
	// fault signature and Runs > 0.
	Config CampaignConfig
	// Snapshot serves one pristine post-Setup world per run (COW clone or
	// full rebuild — the snapshot decides).
	Snapshot *WorldSnapshot
	// ProfileCount is the target primitive's dynamic count from the
	// fault-free profiling pass; each run draws its target uniformly
	// from [0, ProfileCount).
	ProfileCount int64
	// Pool bounds concurrent runs: one slot acquired per dispatched run.
	// The Engine hands every Runner of a grid the same pool.
	Pool chan struct{}
	// Events, when non-nil, receives the spec's structured stream:
	// SpecStart, one RunDone (or RunReused) per successful run,
	// Barrier/StopDecision at adaptive chunk boundaries, and exactly one
	// terminal SpecDone.
	Events *EventBus
}

func (r *Runner) key() string {
	if r.Key != "" {
		return r.Key
	}
	return r.Workload.Name
}

func (r *Runner) publish(ev Event) {
	if r.Events == nil {
		return
	}
	ev.Key = r.key()
	r.Events.Publish(ev)
}

// Run executes the spec's injection runs [start, Runs) against worlds
// served by the snapshot, bounded by the pool; start is the sink's resume
// point (Resumer), 0 for a sink that holds nothing yet.
//
// With Config.Stop set, dispatch is chunked at the rule's index barriers:
// each chunk drains completely, the rule is evaluated on the prefix tally
// (executed outcomes plus the sink's persisted outcomes below start), and
// dispatch stops once satisfied. The evaluated prefix is
// always a complete [0, barrier) — never a completion-order sample — so
// the stopping index depends only on (Seed, Runs, rule), not on pool
// width.
//
// Ordering and error semantics: runs finish in any order under the pool,
// but one that finishes ahead of a lower index waits in a reorder buffer,
// so Config.Sink (or res.Records, without a sink) receives the contiguous
// prefix [start, k) in index order. A failing run (world build or arming
// failure — never the application's own error, which classification
// absorbs) does not poison its siblings: every successful run is tallied,
// and the returned error reports the lowest failing index, where the
// prefix ends. Without a sink, the runs past it are appended to
// res.Records after the prefix, so the result's Tally always covers
// exactly res.Records, never a silent prefix of them.
//
// Record reuse: targets are drawn with replacement, so they repeat. A run
// that succeeded without drawing from its RNG stream (models draw only
// through Env) has a record that, apart from Index, is a pure function of
// (spec, target). Run keeps such records by target for the rest of this
// call; a later run of that target copies one instead of executing and
// publishes RunReused in place of RunDone. A duplicate still in flight
// executes.
//
// Recycling: every run's world draws its blocks from one vfs.BlockList
// and is released after Classify, and Worker pairs serve later runs. Both
// belong to this call and are dropped when it returns.
func (r *Runner) Run() (CampaignResult, error) {
	cfg, w := r.Config, r.Workload
	sig := cfg.Fault.Signature()
	count := r.ProfileCount
	res := CampaignResult{Workload: w.Name, Signature: sig, ProfileCount: count}
	// A resuming sink already holds [0, start); progress accounting reports
	// the executed total so done/total reaches 100% exactly at completion.
	start, prior := 0, []classify.Outcome(nil)
	if rs, ok := cfg.Sink.(Resumer); ok {
		start, prior = rs.Resume()
	}
	total := cfg.Runs - start
	r.publish(Event{Kind: EventSpecStart, Total: total, Runs: cfg.Runs, ProfileCount: count})
	fail := func(err error) (CampaignResult, error) {
		r.publish(Event{Kind: EventSpecDone, Done: total, Total: total, Err: err})
		return res, err
	}
	rule, err := cfg.NormalizedStop()
	if err != nil {
		return fail(err)
	}
	if rule != nil && len(prior) < start {
		return fail(fmt.Errorf("core: adaptive stopping needs the persisted outcomes of runs [0, %d) to evaluate its barriers; the sink reports %d", start, len(prior)))
	}
	if cfg.Sink != nil {
		if err := cfg.Sink.BeginCampaign(CampaignMeta{
			Workload: w.Name, Signature: sig,
			ProfileCount: count, Runs: cfg.Runs, Seed: cfg.Seed,
			Stop: rule,
		}); err != nil {
			return fail(fmt.Errorf("core: record sink: %w", err))
		}
	}
	var (
		wg sync.WaitGroup
		// mu guards the shared accumulators and serializes sink delivery
		// and event publication, so Done counts enter the stream in
		// monotone order and the sink never sees overlapping calls.
		mu       sync.Mutex
		done     int
		tally    classify.Tally
		simTotal int64
		failIdx  = -1
		failErr  error
		sinkErr  error
		// pending is the reorder buffer: finished runs waiting for a lower
		// index; next is the lowest index not yet delivered.
		pending = map[int]RunRecord{}
		next    = start
		// memo holds draw-free runs' records by target (record reuse).
		memo = map[int64]RunRecord{}
		// priorTally accumulates the persisted outcomes below start
		// (adaptive resume); touched only from the dispatch loop.
		priorTally classify.Tally
		// aborted latches the Abort hook's decision; set only from the
		// dispatch loop, read only after the chunk has drained.
		aborted bool
		slots   = runSlots{idle: make(chan Workload, cap(r.Pool))}
	)
	// dispatch launches runs for indices [lo, hi) and waits for the chunk
	// to drain, so the caller observes a complete prefix.
	dispatch := func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			if cfg.Abort != nil && cfg.Abort() {
				aborted = true
				break
			}
			r.Pool <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-r.Pool }()
				rng := runStream(cfg.Seed, idx)
				target := rng.Int64n(count)
				mu.Lock()
				rec, reused := memo[target]
				mu.Unlock()
				var st stageTimes
				var err error
				drawFree := false
				if !reused {
					inj := NewInjector(sig, target, rng)
					rec, err = r.execute(inj, &st, &slots)
					drawFree = !inj.drew.Load()
				}
				rec.Index = idx
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					if failIdx < 0 || idx < failIdx {
						failIdx, failErr = idx, err
					}
				} else {
					if drawFree {
						memo[target] = rec
					}
					tally.Add(rec.Outcome)
					simTotal += rec.SimNanos
					pending[idx] = rec
					for {
						rec, ok := pending[next]
						if !ok {
							break
						}
						delete(pending, next)
						next++
						switch {
						case cfg.Sink == nil:
							res.Records = append(res.Records, rec)
						case sinkErr == nil:
							// The sink goes sterile after its first error:
							// the next record would not extend its prefix.
							sinkErr = cfg.Sink.Record(rec)
						}
					}
				}
				done++
				if err == nil {
					kind := EventRunDone
					if reused {
						kind = EventRunReused
					}
					r.publish(Event{
						Kind: kind, Index: idx, Done: done, Total: total,
						Target: rec.Target, Outcome: rec.Outcome, Fired: rec.Fired,
						CloneMicros:    st.cloneNs / 1e3,
						WorkloadNanos:  st.workNs,
						ClassifyMicros: st.classifyNs / 1e3,
						SimNanos:       rec.SimNanos,
					})
				}
			}()
		}
		wg.Wait()
	}
	if rule == nil {
		dispatch(start, cfg.Runs)
	} else {
		for lo := 0; ; {
			b := rule.NextBarrier(lo)
			// Indices below start are persisted already: they contribute
			// their stored outcomes and never execute.
			for _, o := range prior[min(lo, start):min(b, start)] {
				priorTally.Add(o)
			}
			dispatch(max(lo, start), b)
			lo = b
			if failErr != nil || sinkErr != nil || aborted {
				break
			}
			res.StopIndex = b
			// wg has drained, so done/tally have no concurrent writers.
			r.publish(Event{Kind: EventBarrier, Barrier: b, Done: done, Total: total})
			if b >= rule.MaxRuns {
				break
			}
			// The complete prefix [0, b): executed outcomes plus the
			// persisted outcomes below start.
			outcomes := classify.Outcomes()
			counts := make([]int, len(outcomes))
			trials := 0
			for i, o := range outcomes {
				counts[i] = tally.Count(o) + priorTally.Count(o)
				trials += counts[i]
			}
			stopped := rule.Satisfied(counts, trials)
			r.publish(Event{Kind: EventStopDecision, StopIndex: b, Stopped: stopped, Done: done, Total: total})
			if stopped {
				break
			}
		}
		// Persist the decision: a sink that stores records by index needs
		// the stop index to declare the stream complete.
		if sr, ok := cfg.Sink.(StopRecorder); ok && failErr == nil && sinkErr == nil && !aborted {
			sinkErr = sr.RecordStop(res.StopIndex)
		}
	}

	res.Tally = tally
	res.SimNanos = simTotal
	if cfg.Sink == nil {
		// Runs past a failed index never became deliverable; without a
		// sink to hold a prefix, the result still reports them.
		for _, idx := range slices.Sorted(maps.Keys(pending)) {
			res.Records = append(res.Records, pending[idx])
		}
	}
	switch {
	case failErr != nil:
		return fail(fmt.Errorf("core: run %d: %w", failIdx, failErr))
	case sinkErr != nil:
		return fail(fmt.Errorf("core: record sink: %w", sinkErr))
	case aborted:
		return fail(ErrAborted)
	}
	// Adaptive early stop: the terminal event reports the runs that
	// actually executed, so progress ends at done/done rather than
	// pretending the unspent budget ran.
	final := total
	if res.StopIndex > 0 && res.StopIndex < cfg.Runs {
		final = res.Tally.Total()
	}
	r.publish(Event{Kind: EventSpecDone, Done: final, Total: final, Result: &res})
	return res, nil
}

// stageTimes carries one run's per-stage wall-clock costs into the event
// stream. They never enter RunRecord: persisted record bytes are a pure
// function of (spec, seed, index), pinned by the seed-pinned golden
// suites, and wall-clock noise must not leak into them.
type stageTimes struct {
	cloneNs    int64
	workNs     int64
	classifyNs int64
}

// runSlots is what one Runner.Run call recycles across its runs: the
// blocks of released worlds and the idle Worker pairs, each stored as the
// workload with Run and Classify replaced. A pair is built only while all
// others are in use, each under a pool slot, so idle never needs more
// than the pool's capacity.
type runSlots struct {
	blocks vfs.BlockList
	idle   chan Workload
}

// take returns w with an idle Worker pair in place of Run and Classify, or
// a new pair when none is idle. Without a Worker it is w.
func (s *runSlots) take(w Workload) Workload {
	if w.Worker != nil {
		select {
		case w = <-s.idle:
		default:
			w.Run, w.Classify = w.Worker()
		}
	}
	return w
}

// execute runs one injection through inj on a world served by the
// snapshot, timing the clone-or-rebuild into st. The world draws its
// blocks from slots and is released once classified.
func (r *Runner) execute(inj *Injector, st *stageTimes, slots *runSlots) (RunRecord, error) {
	t0 := time.Now()
	base, err := r.Snapshot.World()
	st.cloneNs = time.Since(t0).Nanoseconds()
	if err != nil {
		return RunRecord{}, err
	}
	vfs.Attach(base, &slots.blocks)
	defer vfs.Release(base)
	w := slots.take(r.Workload)
	if w.Worker != nil {
		defer func() { slots.idle <- w }()
	}
	return runOnceTimed(base, w, inj, r.Config.ArmMounts, st)
}

// runOnceTimed performs one injection run through inj on an already-built
// pristine world — arm, run, classify on the clean view — filling st with
// the stage costs the event stream reports. Non-empty mounts arm the
// injector only on the I/O routed to those mount points; classification
// always reads through the unarmed view of the same storage.
func runOnceTimed(base vfs.FS, w Workload, inj *Injector, mounts []string, st *stageTimes) (RunRecord, error) {
	armed, err := interposeMounts(base, mounts, inj.Wrap)
	if err != nil {
		return RunRecord{}, err
	}
	// Measure only the application's own I/O on the simulated clock: reset
	// before Run (excluding Setup and any profiling charges, and making COW
	// clones and fresh rebuilds indistinguishable), read before
	// classification touches the world.
	vfs.ResetSim(base)
	t := time.Now()
	runErr := runRecovering(w.Run, armed)
	st.workNs = time.Since(t).Nanoseconds()
	simNanos := int64(0)
	if elapsed, ok := vfs.SimElapsed(base); ok {
		simNanos = int64(elapsed)
	}
	t = time.Now()
	outcome := classify.Crash
	if w.Classify != nil {
		outcome = w.Classify(base, runErr)
	} else if runErr == nil {
		outcome = classify.Benign
	}
	st.classifyNs = time.Since(t).Nanoseconds()
	mut, fired := inj.Fired()
	return RunRecord{
		Target:   inj.Target(),
		Outcome:  outcome,
		Mutation: mut,
		Fired:    fired,
		Shots:    inj.FiredShots(),
		RunErr:   runErr,
		SimNanos: simNanos,
	}, nil
}
