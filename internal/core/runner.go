package core

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"ffis/internal/classify"
	"ffis/internal/vfs"
)

// runSpec runs one campaign cell on the shared pool: the loop of the
// paper's Figure 4 — count the target primitive, draw a target per run,
// inject, classify and tally. It is the only place in the tree that
// sequences those stages; local grids, persisted grids and distributed
// workers all reach it through Engine.Run, and Engine.Replay re-executes a
// single run through the same runOnceTimed. sem bounds concurrent work
// across the grid, one slot per profiling pass or dispatched run; idle
// holds the idle Worker pairs of the spec's world key, with at least
// sem's capacity. Every event of the spec carries one key, spec.Key or the
// workload name, and every failure closes the stream with one terminal
// SpecDone, so subscribers see each campaign bracketed.
//
// The runs are [start, Runs), where start is the sink's resume point
// (RecordSink.Resume), 0 without a sink.
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
// prefix [start, k) in index order. The buffer is bounded: index i is
// launched only while i < next + dispatchWindow*cap(sem), next being the
// lowest undelivered index, and the dispatch loop waits for that before it
// takes a pool slot, so a spec held back by one slow run leaves its slots
// to the rest of the grid. A failing run (world build or arming
// failure — never the application's own error, which classification
// absorbs) does not poison its siblings: every successful run is tallied,
// and the returned error reports the lowest failing index, where the
// prefix ends. Without a sink, the runs past it are appended to
// res.Records after the prefix, so the result's Tally always covers
// exactly res.Records, never a silent prefix of them. A sink error, by
// contrast, stops dispatch: no later run could reach the sink.
//
// Record reuse: targets are drawn with replacement, so they repeat. A run
// that succeeded without drawing from its RNG stream (models draw only
// through Env) has a record that, apart from Index, is a pure function of
// (spec, target). runSpec keeps such records by target for the rest of
// this call; a later run of that target copies one instead of executing
// and publishes RunReused in place of RunDone. A duplicate still in
// flight executes.
//
// Recycling: every run's world draws its blocks from one vfs.BlockList
// and is released after Classify; the list belongs to this call. Worker
// pairs serve later runs through idle, and are dropped with it.
func (e *Engine) runSpec(spec CampaignSpec, sem chan struct{}, idle chan Workload) (CampaignResult, error) {
	cfg, w := spec.Config, spec.Workload
	key := cmp.Or(spec.Key, w.Name)
	publish := func(ev Event) {
		if e.Events != nil {
			ev.Key = key
			e.Events.Publish(ev)
		}
	}
	sig := cfg.Fault.Signature()
	res := CampaignResult{Workload: w.Name, Signature: sig}
	// A failure before SpecStart reports no progress; after it, the
	// terminal SpecDone closes progress at done == total.
	closed, total := 0, cfg.Runs
	fail := func(err error) (CampaignResult, error) {
		publish(Event{Kind: EventSpecDone, Done: closed, Total: total, Err: err})
		return res, err
	}
	if cfg.Runs <= 0 {
		return fail(errors.New("core: campaign needs Runs > 0"))
	}
	// Preparation (world build + profiling run) is real work: it occupies a
	// pool slot like any injection run.
	sem <- struct{}{}
	count, snap, err := e.profiled(spec)
	<-sem
	if err != nil {
		return fail(err)
	}
	res.ProfileCount = count
	// A resuming sink already holds [0, start); progress accounting reports
	// the executed total so done/total reaches 100% exactly at completion.
	start, prior := 0, []classify.Outcome(nil)
	if cfg.Sink != nil {
		start, prior = cfg.Sink.Resume()
	}
	total = cfg.Runs - start
	closed = total
	publish(Event{Kind: EventSpecStart, Total: total, Runs: cfg.Runs, ProfileCount: count})
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
		// finished wakes the dispatch loop, waiting on its window, after
		// every run.
		finished = sync.NewCond(&mu)
		window   = dispatchWindow * cap(sem)
		// memo holds draw-free runs' records by target (record reuse).
		memo = map[int64]RunRecord{}
		// priorTally accumulates the persisted outcomes below start
		// (adaptive resume); touched only from the dispatch loop.
		priorTally classify.Tally
		slots      = runSlots{idle: idle}
	)
	// dispatch launches runs for indices [lo, hi) and waits for the chunk
	// to drain, so the caller observes a complete prefix.
	dispatch := func(lo, hi int) {
		for idx := lo; idx < hi; idx++ {
			// After a run failure next stops advancing, so the window no
			// longer binds; after a sink failure no later run can be
			// delivered, so dispatch ends.
			mu.Lock()
			for idx >= next+window && failErr == nil && sinkErr == nil {
				finished.Wait()
			}
			stop := sinkErr != nil
			mu.Unlock()
			if stop {
				break
			}
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
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
					rec, err = slots.execute(snap, w, inj, cfg.ArmMounts, &st)
					drawFree = !inj.drew.Load()
				}
				rec.Index = idx
				mu.Lock()
				defer mu.Unlock()
				defer finished.Signal()
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
					publish(Event{
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
			if failErr != nil || sinkErr != nil {
				break
			}
			res.StopIndex = b
			// wg has drained, so done/tally have no concurrent writers.
			publish(Event{Kind: EventBarrier, Barrier: b, Done: done, Total: total})
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
			publish(Event{Kind: EventStopDecision, StopIndex: b, Stopped: stopped, Done: done, Total: total})
			if stopped {
				break
			}
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
	}
	// Adaptive early stop: the terminal event reports the runs that
	// actually executed, so progress ends at done/done rather than
	// pretending the unspent budget ran.
	final := total
	if res.StopIndex > 0 && res.StopIndex < cfg.Runs {
		final = res.Tally.Total()
	}
	publish(Event{Kind: EventSpecDone, Done: final, Total: final, Result: &res})
	return res, nil
}

// dispatchWindow is how many runs per pool slot a spec may launch past its
// lowest undelivered index: enough to keep every slot busy around a run a
// few times slower than its neighbours, few enough that one slow run holds
// back a bounded number of records, and a failing sink wastes at most that
// many runs.
const dispatchWindow = 4

// stageTimes carries one run's per-stage wall-clock costs into the event
// stream. They never enter RunRecord: persisted record bytes are a pure
// function of (spec, seed, index), pinned by the seed-pinned golden
// suites, and wall-clock noise must not leak into them.
type stageTimes struct {
	cloneNs    int64
	workNs     int64
	classifyNs int64
}

// runSlots is what one runSpec call recycles across its runs: the
// blocks of released worlds and the idle Worker pairs, each stored as a
// workload whose Run and Classify are the pair. A pair is built only while
// all others of its channel are in use, each under a slot of the one pool,
// so idle never needs more than the pool's capacity.
type runSlots struct {
	blocks vfs.BlockList
	idle   chan Workload
}

// execute runs one injection through inj on a clone served by snap,
// timing the clone into st. The world draws its blocks from s
// and is released once classified. With a Worker, w runs on an idle pair
// in place of its Run and Classify, or on a new pair when none is idle,
// and the pair goes back to s afterwards.
func (s *runSlots) execute(snap *WorldSnapshot, w Workload, inj *Injector, mounts []string, st *stageTimes) (RunRecord, error) {
	t0 := time.Now()
	base, err := snap.World()
	st.cloneNs = time.Since(t0).Nanoseconds()
	if err != nil {
		return RunRecord{}, err
	}
	vfs.Attach(base, &s.blocks)
	defer vfs.Release(base)
	if w.Worker != nil {
		select {
		case p := <-s.idle:
			w.Run, w.Classify = p.Run, p.Classify
		default:
			w.Run, w.Classify = w.Worker()
		}
		defer func() { s.idle <- w }()
	}
	return runOnceTimed(base, w, inj, mounts, st)
}

// runOnceTimed performs one injection run through inj on an already-built
// pristine world — arm, run, classify on the clean view — filling st with
// the stage costs the event stream reports. Non-empty mounts arm the
// injector only on the I/O routed to those mount points; classification
// always reads through the unarmed view of the same storage. A model hook
// that panicked fails the run with an error instead of a record.
func runOnceTimed(base vfs.FS, w Workload, inj *Injector, mounts []string, st *stageTimes) (RunRecord, error) {
	armed, err := interposeMounts(base, mounts, inj.Wrap)
	if err != nil {
		return RunRecord{}, err
	}
	// base is a fresh clone, whose clock starts at zero: reading it before
	// classification touches the world measures only the application's own
	// I/O.
	t := time.Now()
	runErr := runRecovering(w.Run, armed)
	st.workNs = time.Since(t).Nanoseconds()
	if hp, ok := runErr.(*hookPanic); ok {
		return RunRecord{}, hp
	}
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
