package core

import (
	"errors"
	"fmt"

	"ffis/internal/classify"
	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// Workload packages an application for fault-injection campaigns. The
// contract mirrors the paper's workflow (Figure 4): Setup prepares input
// files fault-free, Run executes the application whose I/O is interposed
// on, and Classify inspects the outputs (plus the run error) to produce an
// outcome relative to a golden run.
type Workload struct {
	// Name labels the workload in reports.
	Name string
	// Setup populates input files. It runs on the bare file system and is
	// never subject to injection (faults target the application's own
	// I/O, not the pre-existing inputs). Optional.
	Setup func(fs vfs.FS) error
	// Run executes the application under test. All I/O it performs flows
	// through the (possibly armed) file system it is handed.
	Run func(fs vfs.FS) error
	// Classify decides the outcome of a finished run. runErr carries the
	// application error or recovered panic, nil for a clean exit. It runs
	// on the bare file system.
	Classify func(fs vfs.FS, runErr error) classify.Outcome
	// Worker, when non-nil, returns a Run/Classify pair with its own
	// scratch. The Engine builds at most one pair per concurrently
	// executing run and reuses it across the runs of the specs of one
	// world key within one Engine.Run call (CampaignSpec.WorldKey).
	// A pair may keep only what it derived from bytes it compared in full
	// with those it reads, and must behave exactly like Run and Classify,
	// also after a run that failed or panicked midway. Setup, profiling
	// and golden runs use Run and Classify. A wrapper that replaces Run or
	// Classify must also replace or clear Worker, or runs bypass it.
	Worker func() (func(vfs.FS) error, func(vfs.FS, error) classify.Outcome)
	// NewFS constructs the storage world, which must be a vfs.Cloner.
	// Every run (golden, profiling, and each injection run) observes a
	// pristine post-Setup world: a COW clone of one Setup, standing in for
	// the paper's remount of FFISFS per run. Nil selects a bare MemFS. Tiered
	// campaigns return a *vfs.MountFS here so that CampaignConfig.ArmMounts
	// can aim the injector at a single storage tier.
	NewFS func() (vfs.FS, error)
}

// newWorld builds the workload's file-system world for one run.
func newWorld(w Workload) (vfs.FS, error) {
	if w.NewFS == nil {
		return vfs.NewMemFS(), nil
	}
	return w.NewFS()
}

// CampaignConfig controls a statistical fault-injection campaign.
type CampaignConfig struct {
	// Fault selects the fault model/primitive/feature to inject.
	Fault Config
	// Runs is the number of fault-injection runs (the paper uses 1,000
	// per cell).
	Runs int
	// Seed makes the campaign reproducible; run i derives its own stream.
	Seed uint64
	// ArmMounts restricts injection (and the profiling count) to the I/O
	// routed to these mount points of the workload's *vfs.MountFS world:
	// the fault lives in one storage tier, every other tier stays clean.
	// Requires Workload.NewFS to return a *vfs.MountFS. Empty arms the
	// whole file system, the paper's flat single-device setup.
	ArmMounts []string
	// Sink, when non-nil, receives the campaign's run records while it
	// runs: BeginCampaign once after profiling succeeds, then one Record
	// call per run. The Engine delivers in index order, serialized, from
	// the sink's resume point on, so the sink only ever holds a prefix: a
	// run past a failed index is never delivered. A sink error stops
	// delivery and the dispatch of further runs, and fails the campaign
	// with the error wrapped; records already delivered stay delivered.
	// A sink that refuses to take more records, such as a distributed
	// worker's once its lease is lost, thereby stops the campaign and
	// leaves the resumable prefix a killed process would. The sink owns
	// the records, so the CampaignResult keeps none (its Tally still
	// covers every run). A sink that already holds a prefix of the
	// campaign says so through Resume.
	Sink RecordSink
	// Stop enables adaptive, confidence-driven stopping: runs dispatch in
	// chunks up to the rule's fixed index barriers, and at each barrier the
	// complete outcome tally of the prefix [0, barrier) decides whether the
	// campaign stops there. Runs is the fixed budget the rule is normalized
	// against (its MaxRuns cap). Because barriers are index-determined and
	// each run's outcome derives purely from (Seed, index), the stopping
	// index is independent of Engine.Jobs and scheduling. Nil keeps the
	// classic fixed-budget campaign, bit for bit.
	Stop *stats.StopRule
}

// NormalizedStop resolves the campaign's adaptive stopping rule against its
// run budget: every field concrete, as persisted in record headers. Nil
// when the campaign is fixed-budget.
func (cfg CampaignConfig) NormalizedStop() (*stats.StopRule, error) {
	if cfg.Stop == nil {
		return nil, nil
	}
	r, err := cfg.Stop.Normalize(cfg.Runs)
	if err != nil {
		return nil, err
	}
	return &r, nil
}

// CampaignMeta identifies the campaign a record stream belongs to: what a
// persistent sink needs to label (and, on resume, re-validate) its stream.
type CampaignMeta struct {
	Workload     string
	Signature    Signature
	ProfileCount int64
	Runs         int
	Seed         uint64
	// Stop is the normalized adaptive stopping rule, nil for fixed-budget
	// campaigns. It is part of the stream's identity: records produced
	// under a different rule stop at a different index.
	Stop *stats.StopRule
}

// RecordSink streams finished run records out of a campaign while it runs,
// so results reach durable storage before the process exits and the
// campaign need not retain them in memory. The Engine delivers in index
// order and never overlaps calls, so a sink can append each record as it
// arrives and its contents are always a prefix of the campaign.
type RecordSink interface {
	// BeginCampaign is invoked once per campaign, after the profiling pass
	// succeeds and before any Record call. A resuming sink validates meta
	// against its persisted header here: a mismatched profile count or
	// seed means the stored records cannot belong to this campaign.
	BeginCampaign(meta CampaignMeta) error
	// Record receives the next run in index order: the resume point
	// first, then each successor.
	Record(RunRecord) error
	// Resume reports what the sink already holds, before BeginCampaign:
	// runs [0, start) are persisted, so only [start, Runs) execute; 0 for
	// a sink that holds nothing yet. Because each run's RNG stream derives
	// purely from (Seed, index), the executed suffix is bit-identical to
	// the same indices of an uninterrupted campaign. prior holds the
	// persisted outcomes by run index; an adaptive campaign needs all of
	// [0, start) to evaluate its barriers over complete prefixes and
	// refuses to run when prior is shorter. Where an adaptive campaign
	// stopped is in its CampaignResult.StopIndex; a sink's owner persists
	// it when it declares the stream complete.
	Resume() (start int, prior []classify.Outcome)
}

// RunRecord captures a single fault-injection run.
type RunRecord struct {
	Index    int
	Target   int64 // dynamic instance of the primitive that was corrupted
	Outcome  classify.Outcome
	Mutation Mutation // the first (primary) mutation of the event
	Fired    bool     // false when the target instance was never reached
	Shots    int      // shots fired; 1 for the single-shot family, 0 when never fired
	RunErr   error    // the application error, if any
	// SimNanos is the simulated I/O time the run charged against its
	// world's latency-modeled backends (vfs.SimClocked), zero on worlds
	// with no latency modeling. Every run's world is a fresh clone, whose
	// clock starts at zero, so setup and profiling I/O is excluded.
	SimNanos int64
}

// CampaignResult aggregates a finished campaign.
type CampaignResult struct {
	Workload  string
	Signature Signature
	// ProfileCount is the dynamic count of the target primitive measured
	// by the fault-free profiling run.
	ProfileCount int64
	Tally        classify.Tally
	// Records holds the executed runs in index order; nil when a Sink
	// received them.
	Records []RunRecord
	// StopIndex is the adaptive stopping decision: run indices [0,
	// StopIndex) exist and nothing after them does. 0 means the campaign
	// ran its fixed budget (no stopping rule); an adaptive campaign that
	// reaches its cap reports StopIndex == Runs, keeping "adaptive, capped"
	// distinguishable from "fixed" in persisted headers.
	StopIndex int
	// SimNanos is the total simulated I/O time over all executed runs,
	// zero when the world has no latency-modeled backend. Deterministic:
	// per-run charges are interleaving-independent sums, so the total
	// depends only on (Seed, Runs), never on Engine.Jobs.
	SimNanos int64
}

// Cell renders the result as a labelled classify table cell.
func (r CampaignResult) Cell() classify.Cell {
	return classify.Cell{
		Label: fmt.Sprintf("%s/%s", r.Workload, r.Signature.Model.Short()),
		Tally: r.Tally,
	}
}

// ErrNoTargets is returned when profiling finds zero executions of the
// target primitive, i.e. the fault has nowhere to land.
var ErrNoTargets = errors.New("core: target primitive never executes in workload")

// profileWorld runs the fault-free profiling pass on an already-built
// post-Setup world (a snapshot clone in campaign use). The profiler is a
// disarmed injector wrapped exactly as an injection run arms one, so the
// count it returns is the injection target space by construction: an
// instance is whatever the injector would claim. Non-empty mounts restrict
// the count to the I/O routed to those mount points.
func profileWorld(base vfs.FS, w Workload, sig Signature, mounts []string) (int64, error) {
	inj := Disarmed(sig)
	counted, err := interposeMounts(base, mounts, inj.Wrap)
	if err != nil {
		return 0, err
	}
	if err := runRecovering(w.Run, counted); err != nil {
		return 0, fmt.Errorf("core: fault-free profiling run failed: %w", err)
	}
	return inj.Count(), nil
}

// interposeMounts wraps the armed scope of the world with wrap: the whole
// file system when mounts is empty, or each named mount of a *vfs.MountFS
// world otherwise. In the mount case the returned FS is a shallow copy of
// the table sharing the same backends, so the caller's base remains a clean
// routing view onto the very same storage — setup and classification read
// and write the real state without passing through the interposition.
func interposeMounts(base vfs.FS, mounts []string, wrap func(vfs.FS) vfs.FS) (vfs.FS, error) {
	if len(mounts) == 0 {
		return wrap(base), nil
	}
	mt, ok := base.(*vfs.MountFS)
	if !ok {
		return nil, errors.New("core: ArmMounts requires a *vfs.MountFS world (set Workload.NewFS)")
	}
	armed := mt
	for _, dir := range mounts {
		var err error
		armed, err = armed.WithInterposed(dir, wrap)
		if err != nil {
			return nil, fmt.Errorf("core: arm mount %s: %w", dir, err)
		}
	}
	return armed, nil
}

// runRecovering invokes run and converts panics into errors, standing in
// for the process isolation a real injection campaign gets from running the
// application in a child process: a crash must not take the campaign down.
// A panic raised in a model hook comes back as a *hookPanic, which callers
// treat as a failed campaign rather than an application crash.
func runRecovering(run func(vfs.FS) error, fs vfs.FS) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if hp, ok := r.(*hookPanic); ok {
				err = hp
				return
			}
			err = fmt.Errorf("core: application panic: %v", r)
		}
	}()
	return run(fs)
}

// runStream derives run idx's independent, reproducible RNG stream from the
// campaign seed, so a cell produces the same per-run draws no matter how
// wide the worker pool is or which grid it runs in.
func runStream(seed uint64, idx int) *stats.RNG {
	return stats.NewRNG(seed ^ (uint64(idx)+1)*0x9e3779b97f4a7c15)
}
