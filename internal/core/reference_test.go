package core

import (
	"ffis/internal/classify"
	"ffis/internal/vfs"
)

// referenceRecords runs spec the way the paper's Figure 4 procedure does,
// one run at a time: remount, inject, run, classify. It is the oracle the
// Engine's campaign loop is held to, so it does the least that is correct.
// The profiling pass and every run get a world of their own, built fresh
// (NewFS + Setup); run i draws its target from runStream(Seed, i) and runs
// the workload's plain Run and Classify, never a Worker. There is no
// snapshot, clone, record memo, pool, BlockList or reorder buffer. A spec
// with a stop rule runs to the rule's MaxRuns: the Engine's records are a
// prefix of these. A run's SimNanos is what its Run charged the world's
// simulated clock.
func referenceRecords(spec CampaignSpec) (CampaignResult, error) {
	w, cfg := spec.Workload, spec.Config
	sig := cfg.Fault.Signature()
	res := CampaignResult{Workload: w.Name, Signature: sig}
	world, err := buildWorld(w)
	if err != nil {
		return res, err
	}
	count, err := profileWorld(world, w, sig, cfg.ArmMounts)
	switch {
	case err != nil:
		return res, err
	case count == 0:
		return res, ErrNoTargets
	}
	res.ProfileCount = count
	runs := cfg.Runs
	rule, err := cfg.NormalizedStop()
	if err != nil {
		return res, err
	}
	if rule != nil {
		runs = rule.MaxRuns
	}
	for i := 0; i < runs; i++ {
		world, err := buildWorld(w)
		if err != nil {
			return res, err
		}
		rng := runStream(cfg.Seed, i)
		inj := NewInjector(sig, rng.Int64n(count), rng)
		armed, err := interposeMounts(world, cfg.ArmMounts, inj.Wrap)
		if err != nil {
			return res, err
		}
		before, _ := vfs.SimElapsed(world)
		runErr := runRecovering(w.Run, armed)
		if hp, ok := runErr.(*hookPanic); ok {
			return res, hp
		}
		after, _ := vfs.SimElapsed(world)
		outcome := classify.Crash
		if w.Classify != nil {
			outcome = w.Classify(world, runErr)
		} else if runErr == nil {
			outcome = classify.Benign
		}
		mut, fired := inj.Fired()
		rec := RunRecord{
			Index:    i,
			Target:   inj.Target(),
			Outcome:  outcome,
			Mutation: mut,
			Fired:    fired,
			Shots:    inj.FiredShots(),
			RunErr:   runErr,
			SimNanos: int64(after - before),
		}
		res.Records = append(res.Records, rec)
		res.Tally.Add(outcome)
		res.SimNanos += rec.SimNanos
	}
	return res, nil
}
