package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"ffis/internal/core"
)

// WireSpec is the serializable form of one campaign cell: everything a
// remote worker needs to rebuild the exact core.CampaignSpec the
// coordinator is leasing out. Only statically nameable campaign identity
// crosses the wire — cell, model, run budget, seed, world shape — never
// live objects; both sides resolve the spec through the same
// CampaignSpec() builder, so a worker's world, profile pass, and record
// stream are bit-identical to a local run of the same grid.
//
// Adaptive stopping deliberately has no wire form: a stopping rule needs
// the complete outcome prefix to evaluate, which a re-leased spec only
// holds on the coordinator (a worker's sink reports its lease's resume
// point but no prior outcomes). Distributed campaigns are fixed-budget.
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
	// Backend is the flat world's storage backend grammar string
	// ("" = "mem"). Ignored when Mounts is set.
	Backend string `json:"backend,omitempty"`
	// Mounts, when non-empty, builds a MountFS world from these
	// "dir[=backend]" mount specs instead of a flat world.
	Mounts []string `json:"mounts,omitempty"`
	// ArmMounts restricts injection to I/O routed to these mount points.
	ArmMounts []string `json:"arm_mounts,omitempty"`
	// Pipeline selects the producer→consumer pipeline variant of the cell's
	// workload. Read-path models force it regardless: the standard phases
	// only write, so a read fault would have no instance to land on.
	Pipeline bool `json:"pipeline,omitempty"`
	// WorldKey groups specs that share a built world onto one snapshot and
	// one profile pass. Empty derives it from the cell and world shape.
	WorldKey string `json:"world_key,omitempty"`
}

// Normalized fills the derived fields (Key, WorldKey) from the grid
// conventions. Both the coordinator and the worker normalize before use,
// so the two sides always agree on store keys and world grouping.
func (ws WireSpec) Normalized() WireSpec {
	if ws.Key == "" {
		short := ws.Model
		if m, ok := core.Lookup(ws.Model); ok {
			short = m.Short()
		}
		ws.Key = ws.Cell + "/" + short
	}
	if ws.WorldKey == "" {
		ws.WorldKey = ws.Cell
		if ws.Pipeline {
			// A pipeline variant runs a different Setup than the standard
			// cell, so it must never share the standard cell's snapshot.
			ws.WorldKey += "@pipe"
		}
		if len(ws.Mounts) > 0 {
			for _, m := range ws.Mounts {
				ws.WorldKey += "+" + m
			}
		} else if ws.Backend != "" && ws.Backend != "mem" {
			ws.WorldKey += "@" + ws.Backend
		}
	}
	return ws
}

// Validate checks the statically checkable parts of the spec: registered
// model, parseable world grammar, positive run budget. World construction
// itself (unknown cells, bad Nyx geometry) surfaces from CampaignSpec.
func (ws WireSpec) Validate() error {
	if ws.Cell == "" {
		return fmt.Errorf("experiments: wire spec has no cell")
	}
	if _, ok := core.Lookup(ws.Model); !ok {
		return fmt.Errorf("experiments: wire spec %q: unregistered fault model %q", ws.Normalized().Key, ws.Model)
	}
	if ws.Runs <= 0 {
		return fmt.Errorf("experiments: wire spec %q: runs must be positive, got %d", ws.Normalized().Key, ws.Runs)
	}
	if ws.Backend != "" {
		if err := ValidateBackend(ws.Backend); err != nil {
			return fmt.Errorf("experiments: wire spec %q: %w", ws.Normalized().Key, err)
		}
	}
	if _, err := ParseMountSpecs(ws.Mounts); err != nil {
		return fmt.Errorf("experiments: wire spec %q: %w", ws.Normalized().Key, err)
	}
	return nil
}

// CampaignSpec rebuilds the executable campaign spec this wire form
// describes. This is the single canonical builder — the worker runs what
// it returns, and the coordinator validates incoming record headers
// against it — so "same WireSpec" means "same campaign" by construction.
func (ws WireSpec) CampaignSpec() (core.CampaignSpec, error) {
	if err := ws.Validate(); err != nil {
		return core.CampaignSpec{}, err
	}
	ws = ws.Normalized()
	model, _ := core.Lookup(ws.Model)
	o := Options{
		Runs:      ws.Runs,
		Seed:      ws.Seed,
		Shots:     ws.Shots,
		NyxN:      ws.NyxN,
		Backend:   ws.Backend,
		ArmMounts: ws.ArmMounts,
	}
	if len(ws.Mounts) > 0 {
		mounts, err := ParseMountSpecs(ws.Mounts)
		if err != nil {
			return core.CampaignSpec{}, err
		}
		o.Mounts = mounts
	}
	var w core.Workload
	var err error
	if ws.Pipeline || core.IsRead(model) {
		w, err = NewPipelineWorkload(ws.Cell, o)
		if err == nil {
			if newFS := o.worldFS(); newFS != nil {
				w.NewFS = newFS
			}
		}
	} else {
		w, err = NewWorkload(ws.Cell, o)
	}
	if err != nil {
		return core.CampaignSpec{}, fmt.Errorf("experiments: wire spec %q: %w", ws.Key, err)
	}
	spec := fig7Spec(ws.Cell, w, model, o)
	spec.Key = ws.Key
	spec.WorldKey = ws.WorldKey
	return spec, nil
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
