package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ffis/internal/core"
)

// WireSpec is the serializable form of one campaign cell, and the one form
// every grid takes: campaignd leases it to remote workers, and every grid
// of this package (Fig7, Fig7Cell, Ablations, Fig7WithDetector, Tiered,
// ReadWriteGrid) is a []WireSpec run through Options.runGrid. Only
// statically nameable campaign identity crosses the wire — cell, model,
// feature knobs, run budget, seed, world shape — never live objects.
// Workers and local grids build through Workload and CampaignSpecOn, the
// coordinator checks headers against Meta, and all derive from the same
// fields, so a worker's world, profile pass, and record stream are
// bit-identical to a local run of the same grid.
//
// Adaptive stopping deliberately has no wire form: a stopping rule needs
// the complete outcome prefix to evaluate, which a re-leased spec only
// holds on the coordinator (a worker's sink reports its lease's resume
// point but no prior outcomes). Distributed campaigns are fixed-budget;
// local grids add Options.Stop after building.
type WireSpec struct {
	// Key names the spec inside the results store. Empty defaults to the
	// grid convention "<cell>/<model short name>".
	Key string `json:"key,omitempty"`
	// Cell is the Figure 7 cell name ("nyx", "qmcpack", "MT1".."MT4").
	Cell string `json:"cell"`
	// Model is the registered fault model name (e.g. "bit-flip").
	Model string `json:"model"`
	Runs  int    `json:"runs"`
	Seed  uint64 `json:"seed"`
	// Shots overrides the model's shot budget (0 = model default).
	Shots int `json:"shots,omitempty"`
	// NyxN overrides the Nyx grid edge (0 = DefaultSim).
	NyxN int `json:"nyx_n,omitempty"`
	// Backend is the storage backend grammar string ("" = "mem") of the
	// flat world or, with Tiered, of every tier. Mounts name their own.
	Backend string `json:"backend,omitempty"`
	// Mounts, when non-empty, builds a MountFS world from these
	// "dir[=backend]" mount specs instead of a flat world.
	Mounts []string `json:"mounts,omitempty"`
	// ArmMounts restricts injection to I/O routed to these mount points of
	// a mounted or tiered world.
	ArmMounts []string `json:"arm_mounts,omitempty"`
	// Pipeline selects the producer→consumer pipeline variant of the cell's
	// workload. Read-path models force it regardless: the standard phases
	// only write, so a read fault would have no instance to land on.
	Pipeline bool `json:"pipeline,omitempty"`
	// Feature overrides the fault model's feature knobs (the ablation
	// sweeps); zero fields keep the paper defaults.
	Feature WireFeature `json:"feature,omitzero"`
	// AvgDetector classifies the standard Nyx cell with the average-value
	// method.
	AvgDetector bool `json:"avg_detector,omitempty"`
	// Tiered builds the cell's TierLayout world, every tier on Backend.
	Tiered bool `json:"tiered,omitempty"`
}

// WireFeature is the wire form of the core.Feature knobs a grid sweeps.
type WireFeature struct {
	FlipBits     int `json:"flip_bits,omitempty"`
	ShornKeepNum int `json:"shorn_keep_num,omitempty"`
	ShornKeepDen int `json:"shorn_keep_den,omitempty"`
}

// config is the fault configuration the spec describes. ws must be valid.
func (ws WireSpec) config() core.Config {
	model, _ := core.Lookup(ws.Model)
	return core.Config{Model: model, Shots: ws.Shots, Feature: core.Feature{
		FlipBits: ws.Feature.FlipBits, ShornKeepNum: ws.Feature.ShornKeepNum, ShornKeepDen: ws.Feature.ShornKeepDen,
	}}
}

// Normalized fills the derived Key from the grid convention. Both the
// coordinator and the worker normalize before use, so the two sides always
// agree on store keys.
func (ws WireSpec) Normalized() WireSpec {
	if ws.Key == "" {
		short := ws.Model
		if m, ok := core.Lookup(ws.Model); ok {
			short = m.Short()
		}
		ws.Key = ws.Cell + "/" + short
	}
	return ws
}

// pipeline reports whether the spec runs the cell's pipeline variant.
func (ws WireSpec) pipeline() bool {
	m, ok := core.Lookup(ws.Model)
	return ws.Pipeline || (ok && core.IsRead(m))
}

// WorldKey groups specs that share a built world onto one snapshot, one
// profile pass, and one built workload (Engine.Workload). It is derived
// from the application fields — cell, Nyx edge, pipeline variant,
// average-value detector — and from the resolved world the spec builds,
// so two specs share a key exactly when they would build the same
// application, with the same classifier, on the same storage: a tiered
// layout and the same mounts listed explicitly share one. Fault fields
// (model, feature, shots) and arming stay out: they never change the
// world. A cell enters by its canonical name, so an alias ("qmc", "mt2")
// shares its cell's key. Each mount enters as its quoted "dir=backend", so
// no two mount lists encode alike.
func (ws WireSpec) WorldKey() string {
	key := cellWorkloads[ws.Cell]
	if key == "nyx" && ws.NyxN != 0 {
		key += fmt.Sprintf("@n%d", ws.NyxN)
	}
	if ws.pipeline() {
		// A pipeline variant runs a different Setup than the standard
		// cell, so it must never share the standard cell's snapshot.
		key += "@pipe"
	}
	if ws.AvgDetector {
		key += "@avg"
	}
	root, mounts := ws.world()
	if root != "mem" {
		key += "@" + root
	}
	for _, m := range mounts {
		key += "+" + strconv.Quote(m.Path+"="+m.Backend)
	}
	return key
}

// world resolves the storage world the spec builds: the root backend and
// the mounts over it. A flat world is its backend alone, a mounted world
// its mounts over a MemFS root, and a tiered world the cell's TierLayout
// on the backend. Workload builds this world and WorldKey names it.
func (ws WireSpec) world() (root string, mounts []MountSpec) {
	switch {
	case ws.Tiered:
		layout, _ := TierLayout(ws.Cell) // an unknown cell fails Validate
		return layout.world(ws.backend())
	case len(ws.Mounts) > 0:
		for _, m := range ws.Mounts {
			// A malformed mount fails Validate; it enters the key as "=".
			ms, _ := ParseMountSpec(m)
			mounts = append(mounts, ms)
		}
		return "mem", mounts
	}
	return ws.backend(), nil
}

// cellWorkloads maps every accepted cell name to the name of the workload
// it builds, which is what a campaign header records.
var cellWorkloads = map[string]string{
	"nyx": "nyx", "qmcpack": "qmcpack", "qmc": "qmcpack",
	"MT1": "MT1", "MT2": "MT2", "MT3": "MT3", "MT4": "MT4",
	"mt1": "MT1", "mt2": "MT2", "mt3": "MT3", "mt4": "MT4",
}

// Validate checks the spec without building anything: known cell, usable
// Nyx edge, registered model, sane feature knobs, positive run budget, and
// a hermetic world — parseable backend and mounts, none of them an os:
// host directory (one shared directory mutated by every run), one world
// shape at a time, and arming only on a mounted or tiered world. It is the
// one check campaignd and the CLIs apply. A spec that passes can still
// fail to build (a Nyx edge that seeds no halos), which surfaces from
// Workload.
func (ws WireSpec) Validate() error {
	if ws.Cell == "" {
		return fmt.Errorf("experiments: wire spec has no cell")
	}
	key := ws.Normalized().Key
	fail := func(format string, args ...any) error {
		return fmt.Errorf("experiments: wire spec %q: "+format, append([]any{key}, args...)...)
	}
	if _, ok := cellWorkloads[ws.Cell]; !ok {
		return fail("unknown cell %q (want one of %v)", ws.Cell, Fig7Cells)
	}
	if ws.NyxN < 0 || (ws.NyxN > 0 && ws.NyxN <= 8) {
		return fail("nyx_n must be 0 (default) or above 8, got %d", ws.NyxN)
	}
	if _, ok := core.Lookup(ws.Model); !ok {
		return fail("unregistered fault model %q", ws.Model)
	}
	if f := ws.Feature; f.FlipBits < 0 || f.ShornKeepNum < 0 || f.ShornKeepDen < 0 {
		return fail("feature knobs must not be negative, got %+v", f)
	}
	if ws.Runs <= 0 {
		return fail("runs must be positive, got %d", ws.Runs)
	}
	if ws.AvgDetector && (cellWorkloads[ws.Cell] != "nyx" || ws.pipeline()) {
		return fail("avg_detector applies only to the standard nyx cell")
	}
	for _, m := range ws.Mounts {
		if _, err := ParseMountSpec(m); err != nil {
			return fail("%w", err)
		}
	}
	if ws.Backend != "" {
		if err := ValidateBackend(ws.Backend); err != nil {
			return fail("%w", err)
		}
	}
	root, mounts := ws.world()
	for _, m := range append(mounts, MountSpec{Path: "/", Backend: root}) {
		if strings.HasPrefix(m.Backend, "os:") {
			return fail("backend %q is a shared host directory; campaigns need hermetic per-run state", m.Backend)
		}
	}
	switch {
	case len(ws.Mounts) > 0 && ws.Tiered:
		return fail("mounts and tiered are two world shapes; pick one")
	case len(ws.Mounts) > 0 && ws.backend() != "mem":
		return fail("backend applies to flat and tiered worlds; with mounts, name backends per mount (dir=backend)")
	case len(ws.ArmMounts) > 0 && len(ws.Mounts) == 0 && !ws.Tiered:
		return fail("arm_mounts needs a mounted world (mounts or tiered)")
	}
	return nil
}

// Meta is the campaign identity a worker's header must carry for this
// spec — workload name, signature, runs, seed — read off the wire fields
// without building the workload. The profile count is left zero: only a
// built world knows it.
func (ws WireSpec) Meta() (core.CampaignMeta, error) {
	if err := ws.Validate(); err != nil {
		return core.CampaignMeta{}, err
	}
	return core.CampaignMeta{
		Workload:  cellWorkloads[ws.Cell],
		Signature: ws.config().Signature(),
		Runs:      ws.Runs,
		Seed:      ws.Seed,
	}, nil
}

// Workload builds the application this spec runs on its storage world:
// the expensive half of CampaignSpec (a Nyx field and its golden catalog,
// a QMCPACK golden energy). Specs with equal WorldKeys build equal
// workloads, so a caller may build once per key and reuse the result.
func (ws WireSpec) Workload() (core.Workload, error) {
	if err := ws.Validate(); err != nil {
		return core.Workload{}, err
	}
	w, err := newWorkload(ws.Cell, Options{NyxN: ws.NyxN, UseAvgDetector: ws.AvgDetector}, ws.pipeline())
	if err != nil {
		return core.Workload{}, fmt.Errorf("experiments: wire spec %q: %w", ws.Normalized().Key, err)
	}
	w.NewFS = newWorld(ws.world())
	return w, nil
}

// backend resolves the flat or tiered world's backend name.
func (ws WireSpec) backend() string {
	if ws.Backend == "" {
		return "mem"
	}
	return ws.Backend
}

// CampaignSpecOn is the cheap half of CampaignSpec: the executable spec
// that runs this wire form's campaign on w, a workload built by Workload
// for a spec with the same WorldKey. ws must be valid.
func (ws WireSpec) CampaignSpecOn(w core.Workload) core.CampaignSpec {
	ws = ws.Normalized()
	return core.CampaignSpec{
		Key:      ws.Key,
		WorldKey: ws.WorldKey(),
		Workload: w,
		Config: core.CampaignConfig{
			Fault:     ws.config(),
			Runs:      ws.Runs,
			Seed:      ws.Seed,
			ArmMounts: ws.ArmMounts,
		},
	}
}

// CampaignSpec builds the executable campaign spec this wire form
// describes: Workload and CampaignSpecOn combined.
func (ws WireSpec) CampaignSpec() (spec core.CampaignSpec, err error) {
	w, err := ws.Workload()
	if err == nil {
		spec = ws.CampaignSpecOn(w)
	}
	return spec, err
}

// ParseWireSpecs reads a spec grid from r: either one JSON array of
// WireSpecs or a JSONL stream of one spec object per line. Specs are
// normalized and validated; duplicate keys are an error because the store
// keeps one record stream per key.
func ParseWireSpecs(r io.Reader) ([]WireSpec, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("experiments: read wire specs: %w", err)
	}
	var specs []WireSpec
	trimmed := bytes.TrimSpace(raw)
	if len(trimmed) > 0 && trimmed[0] == '[' {
		if err := json.Unmarshal(trimmed, &specs); err != nil {
			return nil, fmt.Errorf("experiments: parse wire specs: %w", err)
		}
	} else {
		dec := json.NewDecoder(bytes.NewReader(trimmed))
		for dec.More() {
			var ws WireSpec
			if err := dec.Decode(&ws); err != nil {
				return nil, fmt.Errorf("experiments: parse wire specs: %w", err)
			}
			specs = append(specs, ws)
		}
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("experiments: wire spec input holds no specs")
	}
	seen := map[string]bool{}
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
		specs[i] = specs[i].Normalized()
		if seen[specs[i].Key] {
			return nil, fmt.Errorf("experiments: duplicate wire spec key %q", specs[i].Key)
		}
		seen[specs[i].Key] = true
	}
	return specs, nil
}

// Fig7WireGrid generates the full Figure 7 characterization grid (every
// cell × every Table I write model) in wire form — the default campaign a
// coordinator serves when launched without a spec file.
func Fig7WireGrid(runs int, seed uint64) []WireSpec {
	var specs []WireSpec
	for _, cell := range Fig7Cells {
		for _, m := range Fig7Models() {
			specs = append(specs, WireSpec{
				Cell:  cell,
				Model: m.Name(),
				Runs:  runs,
				Seed:  seed,
			}.Normalized())
		}
	}
	return specs
}
