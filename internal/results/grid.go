package results

import (
	"cmp"
	"fmt"
	"reflect"

	"ffis/internal/core"
)

// RunGrid is Engine.Run with durability: every spec streams its records
// into the store as runs finish, specs already finalized on disk are loaded
// instead of re-executed, and partially persisted specs resume from exactly
// the first missing run index (the sink's resume point). On success each
// spec's file is atomically finalized and the returned results are
// reconstructed from disk — so what the caller renders is provably what a
// later Report invocation will see.
//
// Campaign errors stay per-cell in GridResult.Err, exactly like Engine.Run:
// a failed or starved cell keeps its partial file for the next resume while
// the rest of the grid completes and finalizes. RunGrid itself returns an
// error only for store-level failures.
func RunGrid(e *core.Engine, st *Store, specs []core.CampaignSpec) ([]core.GridResult, error) {
	grid := make([]GridSpec, len(specs))
	stopErrs := make([]error, len(specs))
	for i, spec := range specs {
		// An invalid rule is the cell's error: a pending cell's campaign
		// reports it, a finalized one's result carries it below.
		stop, err := spec.Config.NormalizedStop()
		stopErrs[i] = err
		grid[i] = GridSpec{Key: spec.Key, World: spec.WorldKey, Meta: core.CampaignMeta{Workload: spec.Workload.Name,
			Signature: spec.Config.Fault.Signature(), Runs: spec.Config.Runs, Seed: spec.Config.Seed, Stop: stop}}
	}
	final, unlock, err := st.Adopt(grid)
	if err != nil {
		return nil, err
	}
	defer unlock()

	out := make([]core.GridResult, len(specs))
	var pending []core.CampaignSpec
	var pendingAt []int
	var sinks []*SpecSink
	for i, spec := range specs {
		if final[i] != nil {
			res, err := final[i].CampaignResult()
			out[i] = core.GridResult{Spec: spec, Result: res, Err: cmp.Or(stopErrs[i], err)}
			continue
		}
		sink, err := st.SpecSink(spec.Key, spec.Config.Runs)
		if err != nil {
			// Close every sink opened so far, so a store-level error never
			// leaks open partial-file handles.
			for _, s := range sinks {
				s.Close()
			}
			return nil, err
		}
		sinks = append(sinks, sink)
		// The sink is the single source of truth for what still runs:
		// records stream to it, its Resume point (with the persisted
		// outcomes an adaptive rule needs) skips the stored prefix, and the
		// campaign keeps no in-memory Records — it tallies online and the
		// authoritative records live on disk.
		spec.Config.Sink = sink
		pending = append(pending, spec)
		pendingAt = append(pendingAt, i)
	}

	var firstErr error
	for j, r := range e.Run(pending) {
		sink := sinks[j]
		if r.Err != nil {
			// Keep the partial for resume; the in-order prefix already on
			// disk is untouched by the failure.
			if cerr := sink.Close(); cerr != nil && firstErr == nil {
				firstErr = cerr
			}
			out[pendingAt[j]] = r
			continue
		}
		if err := sink.Finalize(r.Result.StopIndex); err != nil {
			r.Err = err
			if firstErr == nil {
				firstErr = err
			}
			out[pendingAt[j]] = r
			continue
		}
		// Reconstruct from disk: the full record set and tally, including
		// runs persisted by earlier interrupted invocations — not just the
		// suffix this process executed.
		r.Result, r.Err = st.Result(r.Spec.Key)
		out[pendingAt[j]] = r
	}
	return out, firstErr
}

// HeaderMatches verifies a stored header describes the campaign a caller
// is asking for: everything statically knowable about it — workload name,
// signature, runs, seed, stopping rule — must equal want. The profile count
// is copied from the stored header: it is a property of the built world,
// observable only by re-profiling, which both callers exist to skip.
// Adopt checks a finalized spec's identity here, and the distributed
// coordinator checks each worker's header against its wire spec's Meta
// before ingesting any record.
func HeaderMatches(h Header, want core.CampaignMeta) error {
	want.ProfileCount = h.ProfileCount
	w := NewHeader(want)
	// The stop index is the stored campaign's runtime decision, not a spec
	// property a caller could know statically; like the profile count it is
	// copied from the header. The rule itself still has to match, so a fixed-
	// budget spec can never silently adopt an adaptive store or vice versa.
	w.StopIndex = h.StopIndex
	if !reflect.DeepEqual(h, w) {
		return fmt.Errorf("stored records are from a different campaign (stored %+v, requested %+v); use a fresh -out", h, w)
	}
	return nil
}

// Result loads a spec's stored records and reconstructs the
// core.CampaignResult an uninterrupted in-memory campaign would have
// returned: signature resolved through the model registry, run records
// rebuilt (with StoredError standing in for live error chains), and the
// classify.Tally re-accumulated from the persisted outcomes.
func (st *Store) Result(key string) (core.CampaignResult, error) {
	data, ok, err := st.LoadSpec(key)
	if err != nil {
		return core.CampaignResult{}, err
	}
	if !ok {
		return core.CampaignResult{}, fmt.Errorf("results: spec %q has no stored records", key)
	}
	return data.CampaignResult()
}

// CampaignResult reconstructs the in-memory campaign result from loaded
// spec data.
func (d SpecData) CampaignResult() (core.CampaignResult, error) {
	sig, err := d.Header.SignatureValue()
	if err != nil {
		return core.CampaignResult{}, fmt.Errorf("results: spec %q: %w", d.Key, err)
	}
	res := core.CampaignResult{
		Workload:     d.Header.Workload,
		Signature:    sig,
		ProfileCount: d.Header.ProfileCount,
		StopIndex:    d.Header.StopIndex,
	}
	for _, rec := range d.Records {
		rr, err := rec.RunRecord()
		if err != nil {
			return core.CampaignResult{}, fmt.Errorf("results: spec %q: %w", d.Key, err)
		}
		res.Records = append(res.Records, rr)
		res.Tally.Add(rr.Outcome)
		res.SimNanos += rr.SimNanos
	}
	return res, nil
}
