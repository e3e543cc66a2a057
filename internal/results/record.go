package results

import (
	"encoding/json"
	"fmt"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/stats"
)

// schemaVersion tags every header line and manifest so future layout
// changes can be detected instead of misread.
const schemaVersion = 1

// Header is the first JSONL line of every spec record file: it identifies
// the campaign the records belong to, making the file self-describing and
// giving resume a determinism guard — a resumed campaign whose profile
// count, seed, or signature differs from the persisted header cannot
// produce records compatible with the stored ones, so the mismatch is an
// error instead of a silently mixed file.
type Header struct {
	Schema       int           `json:"ffis_records"`
	Workload     string        `json:"workload"`
	Model        string        `json:"model"`
	Primitive    string        `json:"primitive"`
	Feature      FeatureRecord `json:"feature"`
	ProfileCount int64         `json:"profile_count"`
	Runs         int           `json:"runs"`
	Seed         uint64        `json:"seed"`
	// Shots is the raw Signature.Shots override (0 = model default); part of
	// the stream identity because it changes every multi-shot record.
	Shots int `json:"shots,omitempty"`
	// StopRule is the normalized adaptive stopping rule the campaign ran
	// under (every field explicit, so two processes resolve identical
	// barriers), nil for fixed-budget campaigns. Appended with omitempty so
	// legacy fixed-budget headers keep their exact bytes.
	StopRule *stats.StopRule `json:"stop_rule,omitempty"`
	// StopIndex is where the rule stopped the campaign: run indices [0,
	// StopIndex) exist and nothing after them ever will. 0 for fixed-budget
	// streams; an adaptive campaign that ran to its cap records StopIndex ==
	// Runs. Written by the finalize-time header rewrite, so a resumed grid
	// can tell a complete adaptive spec from one that still needs runs.
	StopIndex int `json:"stop_index,omitempty"`
}

// FeatureRecord is the signature's normalized core.Feature plus the device
// geometry the models act on. The normalized knobs of every spec
// experiments.WireSpec.Validate accepts are nonzero, so the Feature's
// omitempty tags omit nothing here. The geometry and the
// correlated models' fixed burst width and stride are not tunable:
// NewHeader writes the sector and block sizes of core, leaves the two
// omitempty fields zero (so the bytes of every header written before they
// were fixed stay as they were), and SignatureValue refuses any other
// values.
type FeatureRecord struct {
	core.Feature
	SectorSize     int `json:"sector_size"`
	BlockSize      int `json:"block_size"`
	BurstSectors   int `json:"burst_sectors,omitempty"`
	MisdirectEvery int `json:"misdirect_every,omitempty"`
}

// NewHeader renders campaign metadata into the persisted header form. It
// is exported for the distributed path: a campaign worker serializes its
// header here and streams it to the coordinator, whose ingest validates it
// against the spec before persisting (HeaderMatches, SpecSink.BeginHeader).
func NewHeader(meta core.CampaignMeta) Header {
	sig := meta.Signature
	return Header{
		Schema:    schemaVersion,
		Workload:  meta.Workload,
		Model:     sig.Model.Name(),
		Primitive: string(sig.Model.Host()),
		Feature: FeatureRecord{
			Feature:    sig.Feature,
			SectorSize: core.SectorSize,
			BlockSize:  core.BlockSize,
		},
		ProfileCount: meta.ProfileCount,
		Runs:         meta.Runs,
		Seed:         meta.Seed,
		Shots:        sig.Shots,
		StopRule:     meta.Stop,
	}
}

// SignatureValue reconstructs the fault signature the header describes,
// resolving the model through the registry. Loading records for a model
// this binary has never registered is an error — the tally could still be
// rebuilt, but every downstream renderer needs the model's identity. So is
// a header whose primitive is not the model's Host, or whose device
// geometry, burst width or stride differs from what NewHeader writes: no
// campaign of this binary produced those records.
func (h Header) SignatureValue() (core.Signature, error) {
	m, ok := core.Lookup(h.Model)
	if !ok {
		return core.Signature{}, fmt.Errorf("results: stored records use unregistered fault model %q", h.Model)
	}
	if h.Primitive != string(m.Host()) {
		return core.Signature{}, fmt.Errorf("results: stored records put model %s on primitive %q; it hosts only %q",
			m.Name(), h.Primitive, m.Host())
	}
	if f := h.Feature; f.SectorSize != core.SectorSize || f.BlockSize != core.BlockSize || f.BurstSectors != 0 || f.MisdirectEvery != 0 {
		return core.Signature{}, fmt.Errorf("results: stored records use sector_size %d, block_size %d, burst_sectors %d, misdirect_every %d; this binary fixes %d, %d, 0, 0",
			f.SectorSize, f.BlockSize, f.BurstSectors, f.MisdirectEvery, core.SectorSize, core.BlockSize)
	}
	return core.Signature{
		Model:   m,
		Shots:   h.Shots,
		Feature: h.Feature.Feature,
	}, nil
}

// Record is the serializable form of one core.RunRecord: one JSONL line of
// a spec record file. Encoding is deterministic (fixed field order, no
// maps, no timestamps), which is what makes resumed and distributed
// campaigns byte-comparable to uninterrupted ones.
type Record struct {
	Index   int    `json:"index"`
	Target  int64  `json:"target"`
	Outcome string `json:"outcome"`
	Fired   bool   `json:"fired,omitempty"`
	// Shots is serialized only when more than one shot fired: the single-
	// shot family's records (Shots == 1 whenever Fired) keep their exact
	// legacy bytes.
	Shots    int             `json:"shots,omitempty"`
	RunErr   string          `json:"run_err,omitempty"`
	Mutation *MutationRecord `json:"mutation,omitempty"`
	// SimNanos is the run's simulated I/O time on latency-modeled worlds.
	// Appended with omitempty: the default MemFS worlds charge nothing, so
	// every record stream written before latency modeling existed — and
	// every stream from an unmodeled world — keeps its exact legacy bytes.
	SimNanos int64 `json:"sim_ns,omitempty"`
}

// MutationRecord is the serializable form of core.Mutation, whose tags name
// its fields. The model is stored by name (core.Mutation's own Model is not
// serialized); Rendered carries the model's own human-readable line so the
// record stays legible even to tools without the model registered.
type MutationRecord struct {
	Model string `json:"model"`
	core.Mutation
	Rendered string `json:"rendered,omitempty"`
}

// NewRecord renders a finished run into its persisted form. The run error
// and the mutation's model are flattened to strings: error chains and model
// instances do not survive serialization, only their identities do. The
// rendering is a pure function of the run record, and Record round-trips
// losslessly through JSON, so a worker-serialized record re-marshalled by
// a remote coordinator lands byte-identical to a locally written one.
func NewRecord(rec core.RunRecord) Record {
	out := Record{
		Index:    rec.Index,
		Target:   rec.Target,
		Outcome:  rec.Outcome.String(),
		Fired:    rec.Fired,
		SimNanos: rec.SimNanos,
	}
	if rec.Shots > 1 {
		out.Shots = rec.Shots
	}
	if rec.RunErr != nil {
		out.RunErr = rec.RunErr.Error()
	}
	if rec.Fired {
		mr := &MutationRecord{Mutation: rec.Mutation}
		if m := rec.Mutation.Model; m != nil {
			// The name stands in for the model, as after a JSON round trip.
			mr.Model, mr.Rendered, mr.Mutation.Model = m.Name(), rec.Mutation.String(), nil
		}
		out.Mutation = mr
	}
	return out
}

// marshalLine renders a record as its canonical JSONL line (newline
// included). encoding/json emits struct fields in declaration order, so the
// bytes are a pure function of the record.
func marshalLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// StoredError is the reconstituted form of a persisted run error: only the
// rendering of the original error survives serialization, not its chain, so
// errors.Is against application sentinels does not work on loaded records.
type StoredError struct{ Msg string }

func (e StoredError) Error() string { return e.Msg }

// RunRecord reconstructs the in-memory form of a loaded record. Mutation
// model lookup is best-effort: records from an unregistered model keep
// their flat fields with a nil Model.
func (r Record) RunRecord() (core.RunRecord, error) {
	outcome, err := classify.ParseOutcome(r.Outcome)
	if err != nil {
		return core.RunRecord{}, fmt.Errorf("results: record %d: %w", r.Index, err)
	}
	out := core.RunRecord{
		Index:    r.Index,
		Target:   r.Target,
		Outcome:  outcome,
		Fired:    r.Fired,
		Shots:    r.Shots,
		SimNanos: r.SimNanos,
	}
	if out.Shots == 0 && r.Fired {
		out.Shots = 1 // single-shot records omit the count
	}
	if r.RunErr != "" {
		out.RunErr = StoredError{Msg: r.RunErr}
	}
	if r.Mutation != nil {
		out.Mutation = r.Mutation.Mutation
		if model, ok := core.Lookup(r.Mutation.Model); ok {
			out.Mutation.Model = model
		}
	}
	return out, nil
}
