package results

import (
	"bytes"
	"fmt"
	"reflect"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/vfs"
)

// SpecSink streams one campaign's run records into the store. It implements
// core.RecordSink: the Engine delivers records in run-index order and the
// sink appends each as it arrives, refusing any other index, so the on-disk
// file is always a valid in-order prefix — the invariant resume relies on.
//
// Lifecycle: the sink opens (and crash-recovers) the spec's partial file at
// creation; BeginCampaign writes or re-validates the header; Record appends
// runs; Finalize atomically renames the partial into its final form on
// campaign success; Close abandons an in-flight stream, keeping the partial
// on disk for a later resume.
type SpecSink struct {
	store *Store
	key   string
	runs  int

	f      vfs.File
	header *Header // recovered from an existing partial, nil when fresh
	// prefix holds the outcomes of runs [0, len(prefix)) a prior process
	// persisted: the resume point, and what a resumed adaptive campaign
	// re-evaluates its stopping rule over.
	prefix []classify.Outcome
	next   int // lowest run index not yet written: the count persisted so far
	err    error
}

// SpecSink opens a record stream for one spec of a runs-run campaign. An
// existing partial file is recovered — its torn tail (if any) truncated
// away, its persisted prefix reported through Resume — making the sink
// equally the fresh-start and the resume entry point. A finalized spec
// refuses a sink: it has nothing left to run.
func (st *Store) SpecSink(key string, runs int) (*SpecSink, error) {
	if st.finalized(key) {
		return nil, fmt.Errorf("results: spec %q already finalized", key)
	}
	s := &SpecSink{store: st, key: key, runs: runs}
	sf, ok, err := st.readSpec(key, false)
	if err != nil {
		return nil, err
	}
	name := recordName(key, partialExt)
	if ok {
		// Crash recovery: drop the torn tail so the file ends on a record
		// boundary, then append after it.
		if err := st.fs.Truncate(name, sf.validLen); err != nil {
			return nil, fmt.Errorf("results: recover %s: %w", st.partialPath(key), err)
		}
		if sf.hasHeader {
			h := sf.header
			s.header = &h
		}
		// parseSpecFile has checked the records are exactly runs [0, k).
		if len(sf.records) > runs {
			return nil, fmt.Errorf("results: spec %q holds %d records, beyond the campaign's %d runs", key, len(sf.records), runs)
		}
		for k, rec := range sf.records {
			o, err := classify.ParseOutcome(rec.Outcome)
			if err != nil {
				return nil, fmt.Errorf("results: spec %q record %d: %w", key, k, err)
			}
			s.prefix = append(s.prefix, o)
		}
		s.next = len(s.prefix)
	}
	f, err := st.fs.Append(name)
	if err != nil {
		return nil, fmt.Errorf("results: open %s: %w", st.partialPath(key), err)
	}
	s.f = f
	return s, nil
}

// Persisted returns how many of this spec's runs are on disk so far: the
// recovered prefix plus every record appended since.
func (s *SpecSink) Persisted() int { return s.next }

// Resume implements core.RecordSink: the campaign executes only the runs
// after the recovered prefix, and a resumed adaptive campaign evaluates
// its stopping rule over the prefix's stored outcomes plus its own.
func (s *SpecSink) Resume() (start int, prior []classify.Outcome) {
	return len(s.prefix), s.prefix
}

// BeginCampaign implements core.RecordSink. On a fresh stream it writes the
// header line; on a resumed one it validates that the campaign about to run
// is the campaign the stored records came from — any drift (profile count,
// seed, model, run count) means the deterministic (seed, index) → record
// mapping no longer holds and the resume must abort before mixing records.
func (s *SpecSink) BeginCampaign(meta core.CampaignMeta) error {
	return s.BeginHeader(NewHeader(meta))
}

// BeginHeader is the already-serialized form of BeginCampaign: the remote
// ingest path, where the campaign ran on another machine and only its
// Header crossed the wire. The same drift check applies — a worker whose
// world profiled differently (or that was handed a stale spec) is refused
// before any of its records can mix with the stored prefix.
func (s *SpecSink) BeginHeader(h Header) error {
	if h.Schema != schemaVersion {
		return fmt.Errorf("results: spec %q: header schema %d, this store speaks %d", s.key, h.Schema, schemaVersion)
	}
	if s.header != nil {
		if !reflect.DeepEqual(*s.header, h) {
			return fmt.Errorf("results: spec %q: stored header %+v does not match resumed campaign %+v", s.key, *s.header, h)
		}
		return nil
	}
	line, err := marshalLine(h)
	if err != nil {
		return err
	}
	if _, err := s.f.Write(line); err != nil {
		return fmt.Errorf("results: spec %q: write header: %w", s.key, err)
	}
	s.header = &h
	return nil
}

// Header returns the header the stream was begun (or recovered) with, nil
// before BeginCampaign/BeginHeader on a fresh stream.
func (s *SpecSink) Header() *Header {
	if s.header == nil {
		return nil
	}
	h := *s.header
	return &h
}

// Record implements core.RecordSink: it appends the record to disk. Each
// line is written with its trailing newline in one call, so a kill between
// records never tears the file mid-line (a kill during a write can, which
// recovery handles).
func (s *SpecSink) Record(rec core.RunRecord) error {
	return s.Append(NewRecord(rec))
}

// Append is the already-serialized form of Record, the entry point for
// ingesting records produced on another machine. It re-marshals the record
// through the same canonical encoder local runs use, so stored bytes never
// depend on how a client happened to format its JSON. Any index but the
// next one is refused — the coordinator's defense against a confused or
// duplicate worker.
func (s *SpecSink) Append(rec Record) error {
	if s.err != nil {
		return s.err
	}
	if rec.Index < 0 || rec.Index >= s.runs {
		return fmt.Errorf("results: spec %q: record index %d outside campaign of %d runs", s.key, rec.Index, s.runs)
	}
	if rec.Index != s.next {
		return fmt.Errorf("results: spec %q: record %d out of order (expected %d)", s.key, rec.Index, s.next)
	}
	line, err := marshalLine(rec)
	if err == nil {
		_, err = s.f.Write(line)
	}
	if err != nil {
		s.err = fmt.Errorf("results: spec %q: append record %d: %w", s.key, rec.Index, err)
		return s.err
	}
	s.next++
	return nil
}

// Finalize marks the spec complete: the partial file is synced and
// atomically renamed to its final name, the durable signal that every one
// of the spec's runs is persisted. stopIndex is where an adaptive campaign
// stopped (CampaignResult.StopIndex), 0 for a fixed budget; a non-zero one
// is persisted in the header line. It refuses a short stream — fewer runs
// than the budget, or than the stop index when one is given — since
// finalizing would declare missing runs complete.
func (s *SpecSink) Finalize(stopIndex int) error {
	if s.err != nil {
		return s.err
	}
	want := s.runs
	if stopIndex != 0 {
		want = stopIndex
	}
	if s.next != want {
		return fmt.Errorf("results: spec %q: %d of %d runs persisted; not finalizing", s.key, s.next, want)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("results: spec %q: sync: %w", s.key, err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("results: spec %q: close: %w", s.key, err)
	}
	s.f = nil
	if stopIndex != 0 {
		return s.finalizeWithStop(stopIndex)
	}
	if err := s.store.fs.Rename(recordName(s.key, partialExt), recordName(s.key, finalExt)); err != nil {
		return fmt.Errorf("results: finalize spec %q: %w", s.key, err)
	}
	return nil
}

// finalizeWithStop lands an adaptive campaign's stop index in the persisted
// header: the partial's header line is re-marshalled with StopIndex set and
// the whole stream written to a temp file that is synced and atomically
// renamed into the final form, so the stop decision and the "complete"
// marker become durable together. The header line is rewritten rather than
// appended-to because the stop index is campaign identity, and identity
// lives on line one.
func (s *SpecSink) finalizeWithStop(stop int) error {
	if s.header == nil {
		return fmt.Errorf("results: spec %q: stop index %d recorded before any header", s.key, stop)
	}
	fsys, partial, final := s.store.fs, recordName(s.key, partialExt), recordName(s.key, finalExt)
	raw, err := vfs.ReadFile(fsys, partial)
	if err != nil {
		return fmt.Errorf("results: finalize spec %q: %w", s.key, err)
	}
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return fmt.Errorf("results: finalize spec %q: partial holds no complete header line", s.key)
	}
	h := *s.header
	h.StopIndex = stop
	line, err := marshalLine(h)
	if err != nil {
		return err
	}
	tmp := final + ".tmp"
	f, err := fsys.Create(tmp)
	if err == nil {
		_, err = f.Write(append(line, raw[nl+1:]...))
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = fsys.Rename(tmp, final)
	}
	if err != nil {
		return fmt.Errorf("results: finalize spec %q: %w", s.key, err)
	}
	// Best-effort: the final file is authoritative from here; a crash that
	// leaves the partial behind is harmless because loads prefer the final
	// form and a finalized spec never opens a new sink.
	fsys.Remove(partial)
	return nil
}

// Close abandons the stream without finalizing: the partial file stays on
// disk holding its in-order prefix, ready for a later resume. Safe to call
// after Finalize.
func (s *SpecSink) Close() error {
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

var _ core.RecordSink = (*SpecSink)(nil)
