// Package results is the durable half of the campaign engine: a streaming
// JSONL store for fault-injection run records, the resume logic that lets
// one logical grid be interrupted and continued bit-identically (by this
// process, or by the distributed coordinator in internal/campaignd), and the
// report generator that re-renders stored results into the paper's table
// layouts after the fact.
//
// On disk a store is one directory:
//
//	out/
//	  manifest.json              campaign-level metadata (seed, runs, spec keys and their worlds)
//	  records/
//	    <key>.jsonl              finalized spec: header line + one record line per run
//	    <key>.jsonl.partial      in-flight spec: same layout, atomically renamed on finalize
//
// Every line is a self-contained JSON document. The first line of each
// record file is a Header identifying the campaign (workload, model,
// profile count, seed); each following line is one Record in run-index
// order. The campaign engine delivers records in index order and SpecSink
// appends each as it arrives, refusing any other index, so the persisted
// set is always a prefix [0, k) of the run indices and a killed process
// leaves a file that is a valid prefix (possibly plus one torn final line,
// which recovery truncates); loading any other file fails. Nothing in a
// record file depends on wall-clock time, map iteration, or worker
// interleaving: a resumed campaign reproduces the uninterrupted file byte
// for byte.
//
// All file I/O goes through a vfs.FS rooted at the store directory (OSFS in
// production), so the store's recovery can be tested under the fault
// models it records; only the flock of lock_unix.go uses os directly.
package results

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

	"ffis/internal/core"
	"ffis/internal/vfs"
)

// Store-relative names of the store's files.
const (
	manifestName = "/manifest.json"
	recordsDir   = "/records"
	finalExt     = ".jsonl"
	partialExt   = ".jsonl.partial"
)

// Manifest is the campaign-level metadata of a store, persisted as
// manifest.json. Seed and Runs pin the grid parameters every spec ran
// under; Specs lists the spec keys in submission order, which is also
// report order.
type Manifest struct {
	Schema int      `json:"ffis_store"`
	Seed   uint64   `json:"seed"`
	Runs   int      `json:"runs"`
	Specs  []string `json:"specs,omitempty"`
	// Worlds maps a spec key to the world key (core.CampaignSpec.WorldKey)
	// of the world its records come from: the application's build and its
	// storage, root backend and mounts. Part of the spec's identity: two
	// worlds can give record streams with equal headers (same seed, runs,
	// profile count) whose outcomes differ, so Adopt refuses to mix them.
	Worlds map[string]string `json:"worlds,omitempty"`
}

// Store is an open results directory. All methods are safe for concurrent
// use; per-spec record streams are serialized by the campaign engine
// already (core.RecordSink delivery never overlaps).
type Store struct {
	dir string
	fs  vfs.FS // the store's files, named relative to dir

	mu  sync.Mutex
	man Manifest
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// Manifest returns a copy of the store's manifest.
func (st *Store) Manifest() Manifest {
	st.mu.Lock()
	defer st.mu.Unlock()
	man := st.man
	man.Specs = append([]string(nil), st.man.Specs...)
	man.Worlds = maps.Clone(st.man.Worlds)
	return man
}

// Create initializes a new store at dir. It refuses to reuse a directory
// that already holds a store — resuming must be an explicit choice (Open),
// not an accident that silently mixes two campaigns' records.
func Create(dir string, man Manifest) (*Store, error) {
	return create(vfs.NewOSFS(dir), dir, man)
}

// create is Create over fsys; dir only names the store in messages.
func create(fsys vfs.FS, dir string, man Manifest) (*Store, error) {
	if vfs.Exists(fsys, manifestName) {
		return nil, fmt.Errorf("results: %s already holds a results store (use resume to continue it)", dir)
	}
	if err := fsys.MkdirAll(recordsDir); err != nil {
		return nil, fmt.Errorf("results: create store: %w", err)
	}
	man.Schema = schemaVersion
	st := &Store{dir: dir, fs: fsys, man: man}
	if err := st.writeManifest(); err != nil {
		return nil, err
	}
	return st, nil
}

// Open loads an existing store at dir.
func Open(dir string) (*Store, error) { return open(vfs.NewOSFS(dir), dir) }

// open is Open over any file system.
func open(fsys vfs.FS, dir string) (*Store, error) {
	man, err := readManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	return &Store{dir: dir, fs: fsys, man: man}, nil
}

// readManifest loads and checks the manifest of the store at dir.
func readManifest(fsys vfs.FS, dir string) (Manifest, error) {
	raw, err := vfs.ReadFile(fsys, manifestName)
	if err != nil {
		return Manifest{}, fmt.Errorf("results: open store: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return Manifest{}, fmt.Errorf("results: %s: corrupt manifest: %w", dir, err)
	}
	if man.Schema != schemaVersion {
		return Manifest{}, fmt.Errorf("results: %s: store schema %d, this binary speaks %d", dir, man.Schema, schemaVersion)
	}
	return man, nil
}

// CreateOrResume is the CLI entry point: it creates a fresh store, or — when
// resume is set — opens the existing one and validates that the campaign
// parameters match, since records produced under a different seed or run
// count can never extend the stored ones. Each spec is checked again, with
// its world, when its grid adopts it (Adopt).
func CreateOrResume(dir string, resume bool, man Manifest) (*Store, error) {
	if !resume {
		return Create(dir, man)
	}
	st, err := Open(dir)
	if err != nil {
		return nil, err
	}
	if st.man.Seed != man.Seed || st.man.Runs != man.Runs {
		return nil, fmt.Errorf(
			"results: resume mismatch: store %s holds seed=%d runs=%d, this invocation wants seed=%d runs=%d",
			dir, st.man.Seed, st.man.Runs, man.Seed, man.Runs)
	}
	return st, nil
}

// writeManifest persists the manifest atomically (write-then-rename), so a
// kill mid-update leaves either the old or the new manifest, never a torn
// one. Caller holds st.mu or has exclusive access.
func (st *Store) writeManifest() error {
	b, err := json.MarshalIndent(st.man, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	tmp := manifestName + ".tmp"
	if err := vfs.WriteFile(st.fs, tmp, b); err != nil {
		return fmt.Errorf("results: write manifest: %w", err)
	}
	if err := st.fs.Rename(tmp, manifestName); err != nil {
		return fmt.Errorf("results: write manifest: %w", err)
	}
	return nil
}

// GridSpec is one spec of a grid entering the store: its key, the world
// key (core.CampaignSpec.WorldKey) of the world it runs on ("" records
// none), and its campaign identity.
type GridSpec struct {
	Key, World string
	Meta       core.CampaignMeta
}

// Adopt is the one way a grid enters the store, for a local RunGrid and for
// the distributed coordinator alike. It takes the store's lock, re-reads
// the manifest under it (another handle on the store may have registered
// specs since this one opened), and checks every spec before registering
// any: a key twice in the grid, a finalized spec whose stored header is
// another campaign's, a seed or run budget other than the manifest's, and
// a spec the manifest records under another world are refused. Then the
// keys (in first-seen order, so grids that run several sweeps into one
// store accumulate their spec lists) and worlds are registered, a spec
// with no recorded world adopting its own. final[i] holds spec i's stored
// data when it is finalized, nil when it still has runs to execute. The
// caller holds the lock until it calls unlock; on error nothing is
// registered and the lock is released.
func (st *Store) Adopt(specs []GridSpec) (final []*SpecData, unlock func(), err error) {
	release, err := st.lock()
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if err != nil {
			release()
		}
	}()
	st.mu.Lock()
	defer st.mu.Unlock()
	man, err := readManifest(st.fs, st.dir)
	if err != nil {
		return nil, nil, err
	}
	final = make([]*SpecData, len(specs))
	for i, spec := range specs {
		k := spec.Key
		if slices.ContainsFunc(specs[:i], func(g GridSpec) bool { return g.Key == k }) {
			return nil, nil, fmt.Errorf("results: duplicate spec key %q in grid", k)
		}
		if st.finalized(k) {
			data, ok, err := st.LoadSpec(k)
			if err == nil && !ok {
				err = fmt.Errorf("results: spec %q finalized but unreadable", k)
			}
			if err != nil {
				return nil, nil, err
			}
			// A finalized spec is served without running, so its stored
			// header must describe the spec being requested, or the store
			// would answer another campaign's question.
			if err := HeaderMatches(data.Header, spec.Meta); err != nil {
				return nil, nil, fmt.Errorf("results: spec %q: %w", k, err)
			}
			final[i] = &data
		}
		if spec.Meta.Seed != man.Seed || spec.Meta.Runs != man.Runs {
			return nil, nil, fmt.Errorf("results: spec %q wants seed=%d runs=%d, store %s holds seed=%d runs=%d",
				k, spec.Meta.Seed, spec.Meta.Runs, st.dir, man.Seed, man.Runs)
		}
		if stored := man.Worlds[k]; stored != "" && spec.World != "" && stored != spec.World {
			return nil, nil, fmt.Errorf("results: spec %q is stored from world %q, this grid runs it on world %q; use a fresh store",
				k, stored, spec.World)
		}
	}
	changed := false
	for _, spec := range specs {
		if !slices.Contains(man.Specs, spec.Key) {
			man.Specs = append(man.Specs, spec.Key)
			changed = true
		}
		if spec.World != "" && man.Worlds[spec.Key] == "" {
			if man.Worlds == nil {
				man.Worlds = map[string]string{}
			}
			man.Worlds[spec.Key] = spec.World
			changed = true
		}
	}
	st.man = man
	if changed {
		if err := st.writeManifest(); err != nil {
			return nil, nil, err
		}
	}
	return final, release, nil
}

// encodeKey renders a spec key ("nyx/BF", "MT2.tiered/SW") as a collision-
// free file name: letters, digits, dot, underscore, and dash pass through;
// every other byte becomes %XX. The encoding is injective, so two distinct
// spec keys can never share a record file.
func encodeKey(key string) string {
	var b strings.Builder
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			b.WriteByte(c)
		default:
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

// recordName names the spec's record file in the form ext selects, relative
// to the store; messages name its host path, finalPath or partialPath.
func recordName(key, ext string) string { return recordsDir + "/" + encodeKey(key) + ext }

func (st *Store) finalPath(key string) string { return st.dir + recordName(key, finalExt) }

func (st *Store) partialPath(key string) string { return st.dir + recordName(key, partialExt) }

// finalized reports whether the spec's record file has been atomically
// renamed into its final form — the marker that every one of its runs is
// persisted and the spec need not execute again on resume.
func (st *Store) finalized(key string) bool {
	return vfs.Exists(st.fs, recordName(key, finalExt))
}

// specFile is a parsed record file: its decoded header and records.
type specFile struct {
	hasHeader bool // false when the file is empty or its header line is torn
	header    Header
	records   []Record
	// validLen is the byte length of the well-formed prefix; anything
	// beyond it is a torn tail from a killed writer.
	validLen int64
}

// parseSpecFile decodes a record file, tolerating exactly one torn tail: a
// final chunk that is incomplete (no newline) or fails to decode is treated
// as the debris of a kill and excluded from validLen. Malformed lines with
// well-formed successors are corruption and fail the parse, as does stored
// record k holding any index but k.
func parseSpecFile(raw []byte) (*specFile, error) {
	sf := &specFile{}
	off := int64(0)
	lineNo := 0
	for len(raw) > 0 {
		nl := bytes.IndexByte(raw, '\n')
		if nl < 0 {
			break // torn tail: no newline
		}
		line := raw[:nl+1]
		var decodeErr error
		if lineNo == 0 {
			decodeErr = json.Unmarshal(line, &sf.header)
			if decodeErr == nil && sf.header.Schema != schemaVersion {
				return nil, fmt.Errorf("results: record file schema %d, this binary speaks %d", sf.header.Schema, schemaVersion)
			}
		} else {
			var rec Record
			decodeErr = json.Unmarshal(line, &rec)
			if decodeErr == nil {
				// Anything but a prefix would let a resume append after a
				// gap, or a load report a gapped cell as complete.
				if k := len(sf.records); rec.Index != k {
					return nil, fmt.Errorf("results: record file is not a resumable prefix: stored run %d where run %d is next", rec.Index, k)
				}
				sf.records = append(sf.records, rec)
			}
		}
		if decodeErr != nil {
			if bytes.IndexByte(raw[nl+1:], '\n') >= 0 {
				return nil, fmt.Errorf("results: corrupt record line %d: %w", lineNo, decodeErr)
			}
			break // torn tail: last complete-looking line is garbage
		}
		sf.hasHeader = true
		off += int64(len(line))
		raw = raw[nl+1:]
		lineNo++
	}
	sf.validLen = off
	return sf, nil
}

// readSpec loads and parses the spec's record file. final selects which
// form to read; ok is false when the file does not exist.
func (st *Store) readSpec(key string, final bool) (sf *specFile, ok bool, err error) {
	name, p := recordName(key, partialExt), st.partialPath(key)
	if final {
		name, p = recordName(key, finalExt), st.finalPath(key)
	}
	raw, err := vfs.ReadFile(st.fs, name)
	if errors.Is(err, vfs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("results: read %s: %w", p, err)
	}
	sf, err = parseSpecFile(raw)
	if err != nil {
		return nil, false, fmt.Errorf("results: %s: %w", p, err)
	}
	return sf, true, nil
}

// SpecData is the loaded content of one spec's record stream.
type SpecData struct {
	Key     string
	Header  Header
	Records []Record
	// Final reports whether the stream was finalized (every run persisted)
	// or read from an in-flight partial file.
	Final bool
}

// LoadSpec reads a spec's records, preferring the finalized file and
// falling back to the partial one. ok is false when the spec has no stored
// header yet (no file, or a file whose torn tail swallowed the header). A
// finalized file promises exactly runs [0, n), n being the adaptive stop
// index when one is set and the run budget otherwise; parseSpecFile has
// checked the records are a prefix, so only its length remains to check.
func (st *Store) LoadSpec(key string) (data SpecData, ok bool, err error) {
	final := true
	sf, ok, err := st.readSpec(key, true)
	if err != nil {
		return SpecData{}, false, err
	}
	if !ok {
		final = false
		sf, ok, err = st.readSpec(key, false)
		if err != nil || !ok {
			return SpecData{}, false, err
		}
	}
	if !sf.hasHeader {
		return SpecData{}, false, nil
	}
	if final {
		n := sf.header.Runs
		if sf.header.StopIndex != 0 {
			n = sf.header.StopIndex
		}
		if len(sf.records) != n {
			return SpecData{}, false, fmt.Errorf("results: %s: finalized file holds runs [0, %d), want exactly [0, %d)",
				st.finalPath(key), len(sf.records), n)
		}
	}
	return SpecData{Key: key, Header: sf.header, Records: sf.records, Final: final}, true, nil
}

// Load reads every spec registered in the manifest, in manifest order,
// skipping specs with no stored data (e.g. starved placements that never
// began). Skipped keys are returned so reports can say what is missing
// instead of silently narrowing the table.
func (st *Store) Load() (data []SpecData, skipped []string, err error) {
	for _, key := range st.Manifest().Specs {
		d, ok, err := st.LoadSpec(key)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			skipped = append(skipped, key)
			continue
		}
		data = append(data, d)
	}
	return data, skipped, nil
}
