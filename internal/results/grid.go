package results

import (
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
	keys := make([]string, len(specs))
	worlds := make(map[string]string, len(specs))
	for i, spec := range specs {
		keys[i] = spec.Key
		worlds[spec.Key] = spec.WorldKey
	}
	if err := st.EnsureSpecs(keys, worlds); err != nil {
		return nil, err
	}

	unlock, err := st.Lock()
	if err != nil {
		return nil, err
	}
	defer unlock()

	out := make([]core.GridResult, len(specs))
	var pending []core.CampaignSpec
	var pendingAt []int
	sinks := map[string]*SpecSink{}
	// fail closes every sink opened so far before an early return, so a
	// store-level error never leaks open partial-file handles.
	fail := func(err error) ([]core.GridResult, error) {
		for _, s := range sinks {
			s.Close()
		}
		return nil, err
	}
	for i, spec := range specs {
		if st.Finalized(spec.Key) {
			data, ok, err := st.LoadSpec(spec.Key)
			if err != nil {
				return fail(err)
			}
			if !ok {
				return fail(fmt.Errorf("results: spec %q finalized but unreadable", spec.Key))
			}
			// The finalized fast path skips the campaign entirely, so it
			// must apply the same drift guard BeginCampaign enforces on
			// partials: the stored header has to describe the spec being
			// requested, or the store would silently answer a different
			// campaign's question. (World-shape drift that only changes
			// the profile count is the one thing a static check cannot
			// see; everything nameable — workload, model, primitive,
			// feature, runs, seed — is compared.)
			stop, err := spec.Config.NormalizedStop()
			if err == nil {
				err = HeaderMatches(data.Header, core.CampaignMeta{Workload: spec.Workload.Name,
					Signature: spec.Config.Fault.Signature(), Runs: spec.Config.Runs, Seed: spec.Config.Seed, Stop: stop})
			}
			if err != nil {
				return fail(fmt.Errorf("results: spec %q: %w", spec.Key, err))
			}
			res, err := data.CampaignResult()
			out[i] = core.GridResult{Spec: spec, Result: res, Err: err}
			continue
		}
		if sinks[spec.Key] != nil {
			return fail(fmt.Errorf("results: duplicate spec key %q in grid", spec.Key))
		}
		sink, err := st.SpecSink(spec.Key, spec.Config.Runs)
		if err != nil {
			return fail(err)
		}
		sinks[spec.Key] = sink
		// The sink is the single source of truth for what still runs:
		// records stream to it, its Resume point (with the persisted
		// outcomes an adaptive rule needs) skips the stored prefix, and the
		// campaign keeps no in-memory Records — it tallies online and the
		// authoritative records live on disk.
		spec.Config.Sink = sink
		pending = append(pending, spec)
		pendingAt = append(pendingAt, i)
	}

	grid := e.Run(pending)
	var firstErr error
	for j, r := range grid {
		sink := sinks[r.Spec.Key]
		if r.Err != nil {
			// Keep the partial for resume; the in-order prefix already on
			// disk is untouched by the failure.
			if cerr := sink.Close(); cerr != nil && firstErr == nil {
				firstErr = cerr
			}
			out[pendingAt[j]] = r
			continue
		}
		if err := sink.Finalize(); err != nil {
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
// RunGrid's finalized fast path checks its spec's identity here, and the
// distributed coordinator checks each worker's header against its wire
// spec's Meta before ingesting any record.
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
