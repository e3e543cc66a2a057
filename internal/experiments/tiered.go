package experiments

// The tiered-storage scenario. The paper injects faults at the FUSE
// boundary between an application and *one* storage system; production HPC
// I/O is tiered (node-local burst buffer, scratch, campaign/output storage),
// and a device fault lives in exactly one tier. This file sweeps the
// Figure 7 workloads across fault placements — the same fault signature
// armed on the whole world, on the scratch tier only, or on the output tier
// only — and tallies outcomes per placement, answering a question the flat
// single-mount methodology cannot: which storage tier's faults actually
// reach the science?

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/vfs"
)

// TierScratch and TierOutput name the two armable storage tiers of a
// StorageLayout; the empty tier name arms the entire world.
const (
	TierScratch = "scratch"
	TierOutput  = "output"
)

// Placement is one arming choice of the tiered sweep.
type Placement struct {
	// Name labels the placement in reports.
	Name string
	// Tier selects which tier of the layout is armed; "" arms everything
	// (the paper's flat single-device setup).
	Tier string
}

// Placements is the standard sweep: the paper's whole-world baseline plus
// the two single-tier placements.
var Placements = []Placement{
	{Name: "all-armed", Tier: ""},
	{Name: "scratch-only", Tier: TierScratch},
	{Name: "output-only", Tier: TierOutput},
}

// StorageLayout describes the tiered storage world of one workload: which
// extra mounts exist and which mounts make up each tier. Every mount is
// backed by a fresh MemFS per run, so campaigns stay hermetic.
type StorageLayout struct {
	// Mounts lists the mount points of the world beyond the root backend.
	Mounts []string
	// Tiers maps a tier name to the mount points composing it. A tier may
	// be an idle mount the workload never writes — arming it then yields
	// a "no injectable I/O" placement, which is itself a result: faults in
	// that tier cannot reach this workload phase.
	Tiers map[string][]string
}

// FSFactory returns a world constructor (core.Workload.NewFS) building the
// layout on the named backend: every mount — and the root — is a fresh
// instance of that backend per call, so campaigns stay hermetic regardless
// of backend.
func (l StorageLayout) FSFactory(backend string) func() (vfs.FS, error) {
	return newWorld(l.world(backend))
}

// world resolves the layout on the named backend to the root backend and
// mounts newWorld builds. The plain "latency" backend is tier-aware:
// scratch-tier mount points resolve to latency:bb (burst-buffer rates) and
// everything else to latency:pfs (parallel-file-system rates), the way an
// HPC site's tiers actually differ; latency:bb and latency:pfs force one
// cost model everywhere.
func (l StorageLayout) world(backend string) (root string, mounts []MountSpec) {
	resolve := func(dir string) string {
		switch {
		case backend != "latency":
			return backend
		case slices.Contains(l.Tiers[TierScratch], dir):
			return "latency:bb"
		default:
			return "latency:pfs"
		}
	}
	for _, dir := range l.Mounts {
		mounts = append(mounts, MountSpec{Path: dir, Backend: resolve(dir)})
	}
	return resolve("/"), mounts
}

// TierLayout returns the storage layout of a Figure 7 cell, placing each
// application's real paths onto tiers the way an HPC site would:
//
//   - nyx: plotfiles (/plt00000) land on the burst-buffer scratch tier;
//     /out is the campaign-output tier, idle during the simulation phase.
//   - MT1..MT4 (Montage): raw tiles live on the input tier (/raw),
//     intermediate products (/proj, /diff, /corr) on scratch, and the final
//     mosaic (/mosaic) on the output tier.
//   - qmcpack: the scalar files are written beside the job script, so the
//     root mount doubles as its scratch tier and /out is idle — the
//     degenerate single-tier layout the paper's flat setup assumes.
func TierLayout(cell string) (StorageLayout, error) {
	switch cellWorkloads[cell] {
	case "nyx":
		return StorageLayout{
			Mounts: []string{"/plt00000", "/out"},
			Tiers: map[string][]string{
				TierScratch: {"/plt00000"},
				TierOutput:  {"/out"},
			},
		}, nil
	case "qmcpack":
		return StorageLayout{
			Mounts: []string{"/out"},
			Tiers: map[string][]string{
				TierScratch: {"/"},
				TierOutput:  {"/out"},
			},
		}, nil
	case "MT1", "MT2", "MT3", "MT4":
		return StorageLayout{
			Mounts: []string{"/raw", "/proj", "/diff", "/corr", "/mosaic"},
			Tiers: map[string][]string{
				TierScratch: {"/proj", "/diff", "/corr"},
				TierOutput:  {"/mosaic"},
			},
		}, nil
	default:
		return StorageLayout{}, fmt.Errorf("experiments: no tier layout for cell %q", cell)
	}
}

// PlacementResult is one row of the tiered sweep: a workload × placement
// campaign outcome tally.
type PlacementResult struct {
	Cell string
	// Backend names the storage backend every mount of this row's world ran
	// on ("mem", "object[:lag=N]", "latency[:bb|:pfs]").
	Backend   string
	Placement string
	// ArmMounts are the mount points the injector was armed on (empty =
	// the whole world).
	ArmMounts []string
	// ProfileCount is the dynamic count of the target primitive routed to
	// the armed scope; zero when NoTargets.
	ProfileCount int64
	// NoTargets marks a placement whose armed tier receives none of the
	// instrumented phase's I/O: the fault has nowhere to land, so every
	// hypothetical run is vacuously clean.
	NoTargets bool
	Tally     classify.Tally
	// SimNanos is the total simulated I/O time over the placement's runs;
	// zero unless the backend is latency-modeled.
	SimNanos int64
}

// TieredCells is the default workload set of the tiered sweep: two
// genuinely multi-tier applications (Nyx and the Montage stages that write
// to scratch and output respectively) — at least two distinct workloads as
// the scenario requires.
var TieredCells = []string{"nyx", "MT2", "MT4"}

// Tiered sweeps the given Figure 7 cells across the fault placements — and,
// when Options.Backends names more than the default MemFS, across storage
// backends — as one engine grid, returning the rendered per-placement
// outcome table plus the raw results. Empty cells selects TieredCells. All
// placements of a (cell, backend) pair share one WorldKey — the mounted
// world is built and Setup once, profile counts are memoized per
// armed-mount set, and every placement's runs draw from the engine's shared
// pool. Distinct backends get distinct WorldKeys, so the engine never hands
// one backend's snapshot to another backend's runs, and an unknown backend
// fails WireSpec.Validate. Spec keys are cell[/backend]/placement/MODEL, the
// backend named unless it is the default mem and MODEL the model's short
// code, so the sweeps of several models can share one store.
func Tiered(cells []string, model core.Model, o Options) (string, []PlacementResult, error) {
	o = o.normalize()
	if len(cells) == 0 {
		cells = TieredCells
	}
	var specs []WireSpec
	var metas []PlacementResult
	for _, cell := range cells {
		layout, err := TierLayout(cell)
		if err != nil {
			return "", nil, err
		}
		for _, backend := range o.Backends {
			key := cell
			if backend != "mem" {
				key = cell + "/" + backend
			}
			for _, pl := range Placements {
				mounts := append([]string(nil), layout.Tiers[pl.Tier]...)
				sort.Strings(mounts)
				metas = append(metas, PlacementResult{
					Cell: cell, Backend: backend, Placement: pl.Name, ArmMounts: mounts,
				})
				ws := o.wire(cell, model).tiered(backend)
				ws.Key, ws.ArmMounts = key+"/"+pl.Name+"/"+model.Short(), mounts
				specs = append(specs, ws)
			}
		}
	}
	grid, err := o.runGrid(specs)
	if err != nil {
		return "", nil, err
	}
	results := metas
	for i, r := range grid {
		switch {
		case errors.Is(r.Err, core.ErrNoTargets):
			results[i].NoTargets = true
		case r.Err != nil:
			return "", nil, fmt.Errorf("tiered %s: %w", r.Spec.Key, r.Err)
		default:
			results[i].ProfileCount = r.Result.ProfileCount
			results[i].Tally = r.Result.Tally
			results[i].SimNanos = r.Result.SimNanos
		}
	}
	return RenderTiered(model, o.Runs, results), results, nil
}

// RenderTiered formats the sweep as a per-placement outcome table. A sweep
// over the default mem backend renders the classic placement table; once
// any row ran on another backend, a backend column and a simulated-time
// column (milliseconds, blank for unmodeled backends) join the layout.
func RenderTiered(model core.Model, runs int, results []PlacementResult) string {
	extended := false
	for _, r := range results {
		if r.Backend != "" && r.Backend != "mem" {
			extended = true
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Tiered storage: %s faults by placement (%d runs per armed cell)\n", model.Name(), runs)
	// lead writes a row's identifying columns; the backend column only
	// in the extended layout.
	lead := func(cell, backend, placement, armed string) {
		fmt.Fprintf(&b, "%-9s ", cell)
		if extended {
			fmt.Fprintf(&b, "%-12s ", backend)
		}
		fmt.Fprintf(&b, "%-13s %-22s ", placement, armed)
	}
	lead("workload", "backend", "placement", "armed mounts")
	fmt.Fprintf(&b, "%8s %7s %7s %9s %7s", "targets", "benign", "SDC", "detected", "crash")
	if extended {
		fmt.Fprintf(&b, " %10s", "sim-ms")
	}
	b.WriteByte('\n')
	for _, r := range results {
		armed := "(entire file system)"
		if len(r.ArmMounts) > 0 {
			armed = strings.Join(r.ArmMounts, ",")
		}
		lead(r.Cell, cmp.Or(r.Backend, "mem"), r.Placement, armed)
		if r.NoTargets {
			fmt.Fprintf(&b, "%8d %s\n", 0, "— no injectable I/O routed to this tier")
			continue
		}
		fmt.Fprintf(&b, "%8d %7d %7d %9d %7d", r.ProfileCount,
			r.Tally.Count(classify.Benign), r.Tally.Count(classify.SDC),
			r.Tally.Count(classify.Detected), r.Tally.Count(classify.Crash))
		if extended {
			sim := ""
			if r.SimNanos > 0 {
				sim = fmt.Sprintf("%.3f", float64(r.SimNanos)/1e6)
			}
			fmt.Fprintf(&b, " %10s", sim)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
