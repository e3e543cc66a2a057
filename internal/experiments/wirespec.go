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
// live objects. The worker builds through Workload and CampaignSpecOn, the
// coordinator checks headers against Meta, and both derive from the same
// fields, so a worker's world, profile pass, and record stream are
// bit-identical to a local run of the same grid.
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
// profile pass, and (on a worker's engine) one built workload. It is
// derived from every field that shapes the world — cell, Nyx edge,
// pipeline variant, mounts or backend — so two specs share a key only when
// they would build the same application on the same storage.
func (ws WireSpec) WorldKey() string {
	key := ws.Cell
	if ws.Cell == "nyx" && ws.NyxN != 0 {
		key += fmt.Sprintf("@n%d", ws.NyxN)
	}
	if ws.pipeline() {
		// A pipeline variant runs a different Setup than the standard
		// cell, so it must never share the standard cell's snapshot.
		key += "@pipe"
	}
	if len(ws.Mounts) > 0 {
		for _, m := range ws.Mounts {
			key += "+" + m
		}
	} else if ws.Backend != "" && ws.Backend != "mem" {
		key += "@" + ws.Backend
	}
	return key
}

// cellWorkloads maps every accepted cell name to the name of the workload
// it builds, which is what a campaign header records.
var cellWorkloads = map[string]string{
	"nyx": "nyx", "qmcpack": "qmcpack", "qmc": "qmcpack",
	"MT1": "MT1", "MT2": "MT2", "MT3": "MT3", "MT4": "MT4",
	"mt1": "MT1", "mt2": "MT2", "mt3": "MT3", "mt4": "MT4",
}

// Validate checks the spec without building anything: known cell, usable
// Nyx edge, registered model, parseable world grammar, positive run
// budget. A spec that passes can still fail to build (a Nyx edge that
// seeds no halos), which surfaces from Workload.
func (ws WireSpec) Validate() error {
	if ws.Cell == "" {
		return fmt.Errorf("experiments: wire spec has no cell")
	}
	key := ws.Normalized().Key
	if _, ok := cellWorkloads[ws.Cell]; !ok {
		return fmt.Errorf("experiments: wire spec %q: unknown cell %q (want one of %v)", key, ws.Cell, Fig7Cells)
	}
	if ws.NyxN < 0 || (ws.NyxN > 0 && ws.NyxN <= 8) {
		return fmt.Errorf("experiments: wire spec %q: nyx_n must be 0 (default) or above 8, got %d", key, ws.NyxN)
	}
	if _, ok := core.Lookup(ws.Model); !ok {
		return fmt.Errorf("experiments: wire spec %q: unregistered fault model %q", key, ws.Model)
	}
	if ws.Runs <= 0 {
		return fmt.Errorf("experiments: wire spec %q: runs must be positive, got %d", key, ws.Runs)
	}
	if ws.Backend != "" {
		if err := ValidateBackend(ws.Backend); err != nil {
			return fmt.Errorf("experiments: wire spec %q: %w", key, err)
		}
	}
	if _, err := ParseMountSpecs(ws.Mounts); err != nil {
		return fmt.Errorf("experiments: wire spec %q: %w", key, err)
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
	model, _ := core.Lookup(ws.Model)
	return core.CampaignMeta{
		Workload:  cellWorkloads[ws.Cell],
		Signature: core.Config{Model: model, Shots: ws.Shots}.Signature(),
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
	mounts, _ := ParseMountSpecs(ws.Mounts) // checked by Validate
	o := Options{NyxN: ws.NyxN, Backend: ws.Backend, Mounts: mounts}
	var w core.Workload
	var err error
	if ws.pipeline() {
		w, err = NewPipelineWorkload(ws.Cell, o)
		if newFS := o.worldFS(); err == nil && newFS != nil {
			w.NewFS = newFS
		}
	} else {
		w, err = NewWorkload(ws.Cell, o)
	}
	if err != nil {
		return core.Workload{}, fmt.Errorf("experiments: wire spec %q: %w", ws.Normalized().Key, err)
	}
	return w, nil
}

// CampaignSpecOn is the cheap half of CampaignSpec: the executable spec
// that runs this wire form's campaign on w, a workload built by Workload
// for a spec with the same WorldKey. ws must be valid.
func (ws WireSpec) CampaignSpecOn(w core.Workload) core.CampaignSpec {
	ws = ws.Normalized()
	model, _ := core.Lookup(ws.Model)
	spec := fig7Spec(ws.Cell, w, model, Options{Runs: ws.Runs, Seed: ws.Seed, Shots: ws.Shots, ArmMounts: ws.ArmMounts})
	spec.Key = ws.Key
	spec.WorldKey = ws.WorldKey()
	return spec
}

// CampaignSpec builds the executable campaign spec this wire form
// describes: Workload and CampaignSpecOn combined.
func (ws WireSpec) CampaignSpec() (core.CampaignSpec, error) {
	w, err := ws.Workload()
	if err != nil {
		return core.CampaignSpec{}, err
	}
	return ws.CampaignSpecOn(w), nil
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
