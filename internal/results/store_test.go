package results

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/experiments"
	"ffis/internal/stats"
)

// runCampaign runs one campaign as a one-spec Engine grid on jobs slots
// (<= 0 selects GOMAXPROCS).
func runCampaign(jobs int, cfg core.CampaignConfig, w core.Workload) (core.CampaignResult, error) {
	grid := (&core.Engine{Jobs: jobs}).Run([]core.CampaignSpec{{Workload: w, Config: cfg}})
	return grid[0].Result, grid[0].Err
}

func TestEncodeKeyInjectiveAndFilesystemSafe(t *testing.T) {
	keys := []string{"nyx/BF", "nyx%2FBF", "MT2.tiered/SW", "a b", "a/b/c", "a_b-c.d"}
	seen := map[string]string{}
	for _, k := range keys {
		enc := encodeKey(k)
		if strings.ContainsAny(enc, "/\\ ") {
			t.Errorf("encodeKey(%q) = %q contains unsafe bytes", k, enc)
		}
		if prev, dup := seen[enc]; dup {
			t.Errorf("collision: %q and %q both encode to %q", prev, k, enc)
		}
		seen[enc] = k
	}
}

func TestParseSpecFileTornTailRecovery(t *testing.T) {
	header := `{"ffis_records":1,"workload":"w","model":"bit-flip","primitive":"write","feature":{"flip_bits":2,"shorn_keep_num":7,"shorn_keep_den":8,"sector_size":512,"block_size":4096},"profile_count":8,"runs":4,"seed":1}` + "\n"
	rec0 := `{"index":0,"target":3,"outcome":"benign"}` + "\n"
	rec1 := `{"index":1,"target":5,"outcome":"SDC"}` + "\n"

	cases := []struct {
		name     string
		raw      string
		records  int
		validLen int
	}{
		{"complete", header + rec0 + rec1, 2, len(header) + len(rec0) + len(rec1)},
		{"torn no newline", header + rec0 + `{"index":1,"tar`, 1, len(header) + len(rec0)},
		{"torn garbage line", header + rec0 + "garbage}\n", 1, len(header) + len(rec0)},
		{"torn header", `{"ffis_rec`, 0, 0},
		{"empty", "", 0, 0},
	}
	for _, c := range cases {
		sf, err := parseSpecFile([]byte(c.raw))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(sf.records) != c.records {
			t.Errorf("%s: %d records, want %d", c.name, len(sf.records), c.records)
		}
		if sf.validLen != int64(c.validLen) {
			t.Errorf("%s: validLen %d, want %d", c.name, sf.validLen, c.validLen)
		}
	}

	// A malformed line with well-formed successors is corruption, not a
	// torn tail.
	if _, err := parseSpecFile([]byte(header + "garbage}\n" + rec1)); err == nil {
		t.Fatal("mid-file corruption must fail the parse")
	}
	// Out-of-order records can only come from a buggy writer.
	if _, err := parseSpecFile([]byte(header + rec1 + rec0)); err == nil {
		t.Fatal("out-of-order records must fail the parse")
	}
}

// adopt adopts keys, each on its world in worlds, as a grid of the store's
// seed and run budget, and releases the store lock again.
func adopt(st *Store, worlds map[string]string, keys ...string) error {
	man := st.Manifest()
	grid := make([]GridSpec, len(keys))
	for i, k := range keys {
		grid[i] = GridSpec{Key: k, World: worlds[k], Meta: core.CampaignMeta{Seed: man.Seed, Runs: man.Runs}}
	}
	_, unlock, err := st.Adopt(grid)
	if err == nil {
		unlock()
	}
	return err
}

func TestCreateRefusesExistingStore(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, Manifest{Seed: 1, Runs: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, Manifest{Seed: 1, Runs: 2}); err == nil {
		t.Fatal("Create must refuse a directory that already holds a store")
	}
}

func TestCreateOrResumeValidatesParameters(t *testing.T) {
	dir := t.TempDir()
	key, object := "MT2/BF", map[string]string{"MT2/BF": "MT2@object"}
	st, err := Create(dir, Manifest{Seed: 7, Runs: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := adopt(st, object, key); err != nil {
		t.Fatal(err)
	}
	resumed, err := CreateOrResume(dir, true, Manifest{Seed: 7, Runs: 50})
	if err != nil {
		t.Fatalf("matching resume rejected: %v", err)
	}
	if err := adopt(resumed, object, key); err != nil {
		t.Fatalf("matching resume rejected: %v", err)
	}
	for _, bad := range []Manifest{
		{Seed: 8, Runs: 50},
		{Seed: 7, Runs: 51},
	} {
		if _, err := CreateOrResume(dir, true, bad); err == nil {
			t.Fatalf("resume with drifted parameters %+v must be rejected", bad)
		}
	}
	// A resume on the default mem backend is refused when its grid
	// adopts the spec.
	if err := adopt(resumed, map[string]string{key: "MT2"}, key); err == nil {
		t.Fatal("resume with drifted backend must be rejected")
	}
}

func TestResumeRejectsBackendMismatch(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, Manifest{Seed: eqSeed, Runs: eqRuns})
	if err != nil {
		t.Fatal(err)
	}
	// eq/old was registered by a grid that recorded no world.
	if err := adopt(st, map[string]string{"eq/BF": "eq@object"}, "eq/old", "eq/BF"); err != nil {
		t.Fatal(err)
	}
	resumed, err := CreateOrResume(dir, true, Manifest{Seed: eqSeed, Runs: eqRuns})
	if err != nil {
		t.Fatal(err)
	}
	want := resumed.Manifest()
	err = adopt(resumed, map[string]string{"eq/old": "eq", "eq/BF": "eq@latency:bb"}, "eq/old", "eq/BF")
	if err == nil || !strings.Contains(err.Error(), "world") {
		t.Fatalf("resume across backends must be refused, got %v", err)
	}
	if got := resumed.Manifest(); !reflect.DeepEqual(got, want) {
		t.Fatalf("a refused registration changed the manifest: %+v, want %+v", got, want)
	}
	// The spec with no recorded world adopts one, and keeps it.
	if err := adopt(resumed, map[string]string{"eq/old": "eq"}, "eq/old"); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.Manifest().Worlds; !reflect.DeepEqual(got, map[string]string{"eq/old": "eq", "eq/BF": "eq@object"}) {
		t.Fatalf("persisted worlds %v", got)
	}
	if err := adopt(reopened, map[string]string{"eq/old": "eq@object"}, "eq/old"); err == nil {
		t.Fatal("an adopted world must be kept")
	}
}

// TestResumeRefusesAnotherWorld: a resumed campaign whose mounts build
// another world than the stored records came from must be refused before it
// appends a record, even though seed, runs, root backend, header and
// profile count all agree; the stored world resumes as before.
func TestResumeRefusesAnotherWorld(t *testing.T) {
	const runs, seed, cut = 10, 3, 5
	armed := experiments.WireSpec{Cell: "MT2", Model: "read-bit-flip", Runs: runs, Seed: seed,
		Mounts: []string{"/proj=object"}, ArmMounts: []string{"/proj"}}
	key := armed.Normalized().Key
	run := func(st *Store, ws experiments.WireSpec) error {
		_, err := experiments.Fig7Cell(ws, experiments.Options{
			Engine: &core.Engine{Jobs: 2},
			RunGrid: func(e *core.Engine, specs []core.CampaignSpec) ([]core.GridResult, error) {
				return RunGrid(e, st, specs)
			},
		})
		return err
	}
	dir := t.TempDir()
	st, err := Create(dir, Manifest{Seed: seed, Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(st, armed); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(st.finalPath(key))
	if err != nil {
		t.Fatal(err)
	}
	// Cut the finalized file back to its header and first records.
	lines := bytes.SplitAfter(full, []byte("\n"))
	prefix := bytes.Join(lines[:1+cut], nil)
	if err := os.Remove(st.finalPath(key)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.partialPath(key), prefix, 0o644); err != nil {
		t.Fatal(err)
	}

	mem := armed
	mem.Mounts = []string{"/proj=mem"}
	resumed, err := CreateOrResume(dir, true, Manifest{Seed: seed, Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(resumed, mem); err == nil || !strings.Contains(err.Error(), "world") {
		t.Fatalf("resume on another world must be refused, got %v", err)
	}
	if got, err := os.ReadFile(st.partialPath(key)); err != nil || !bytes.Equal(got, prefix) {
		t.Fatalf("the refused resume touched the stored prefix (%v)", err)
	}
	if err := run(resumed, armed); err != nil {
		t.Fatalf("resume on the stored world: %v", err)
	}
	if got, err := os.ReadFile(st.finalPath(key)); err != nil || !bytes.Equal(got, full) {
		t.Fatalf("resume on the stored world did not reproduce the file (%v)", err)
	}
}

func TestBeginCampaignValidatesResumeHeader(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, Manifest{Seed: eqSeed, Runs: eqRuns})
	if err != nil {
		t.Fatal(err)
	}
	meta := core.CampaignMeta{
		Workload:     "eq",
		Signature:    core.Config{Model: core.MustModel("bit-flip")}.Signature(),
		ProfileCount: 8,
		Runs:         eqRuns,
		Seed:         eqSeed,
	}
	sink, err := st.SpecSink("eq/BF", eqRuns)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.BeginCampaign(meta); err != nil {
		t.Fatal(err)
	}
	if err := sink.Record(core.RunRecord{Index: 0, Target: 1, Outcome: classify.Benign}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	resumed, err := st.SpecSink("eq/BF", eqRuns)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.BeginCampaign(meta); err != nil {
		t.Fatalf("identical campaign must resume: %v", err)
	}
	resumed.Close()

	drifted, err := st.SpecSink("eq/BF", eqRuns)
	if err != nil {
		t.Fatal(err)
	}
	bad := meta
	bad.ProfileCount = 9 // a different world: stored targets are meaningless
	if err := drifted.BeginCampaign(bad); err == nil {
		t.Fatal("resume with a drifted profile count must be rejected")
	}
	drifted.Close()
}

func TestReportFormats(t *testing.T) {
	dir := t.TempDir()
	runGridInto(t, dir, 4)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	text, err := Report(st, "text")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "eq/BF") || !strings.Contains(text, "eq/DW") ||
		!strings.Contains(text, "Stored campaign results (2 specs, 30 runs per cell, seed 42)") {
		t.Fatalf("text report:\n%s", text)
	}

	csv, err := Report(st, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv, "label,runs,") || !strings.Contains(csv, "eq/BF,30,") {
		t.Fatalf("csv report:\n%s", csv)
	}

	md, err := Report(st, "md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md, "| eq/BF | 30 |") {
		t.Fatalf("markdown report:\n%s", md)
	}

	js, err := Report(st, "json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]any
	if err := json.Unmarshal([]byte(js), &rows); err != nil {
		t.Fatalf("json report does not parse: %v\n%s", err, js)
	}
	if len(rows) != 2 || rows[0]["workload"] != "eq/BF" || rows[0]["fault_model"] != "bit-flip" {
		t.Fatalf("json rows: %v", rows)
	}

	if _, err := Report(st, "yaml"); err == nil {
		t.Fatal("unknown format must error")
	}
}

// TestReportCallsOutMissingSpecs: specs registered in the manifest but with
// no stored data (starved placements, pre-first-run crashes) appear in the
// human-readable footers instead of vanishing.
func TestReportCallsOutMissingSpecs(t *testing.T) {
	dir := t.TempDir()
	runGridInto(t, dir, 2)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := adopt(st, nil, "eq/ghost"); err != nil {
		t.Fatal(err)
	}
	text, err := Report(st, "text")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "no stored records") || !strings.Contains(text, "eq/ghost") {
		t.Fatalf("missing specs not called out:\n%s", text)
	}
}

// TestStoredRecordsRoundTrip: the loader reconstructs exactly what the
// in-memory campaign produced — outcomes, targets, mutations, and the
// profile count — from disk alone.
func TestStoredRecordsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	grid := runGridInto(t, dir, 4)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := runCampaign(1, core.CampaignConfig{
		Fault: core.Config{Model: core.MustModel("bit-flip")},
		Runs:  eqRuns, Seed: eqSeed,
	}, eqWorkload())
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Result("eq/BF")
	if err != nil {
		t.Fatal(err)
	}
	if res.ProfileCount != mem.ProfileCount || res.Tally != mem.Tally {
		t.Fatalf("loaded %+v vs in-memory %+v", res.Tally, mem.Tally)
	}
	if len(res.Records) != len(mem.Records) {
		t.Fatalf("%d loaded records vs %d", len(res.Records), len(mem.Records))
	}
	for i, got := range res.Records {
		want := mem.Records[i]
		if got.Index != want.Index || got.Target != want.Target ||
			got.Outcome != want.Outcome || got.Fired != want.Fired {
			t.Fatalf("record %d: loaded %+v, want %+v", i, got, want)
		}
		if got.Fired {
			if got.Mutation.Model == nil || got.Mutation.Model.Name() != want.Mutation.Model.Name() {
				t.Fatalf("record %d: model not reconstructed: %+v", i, got.Mutation)
			}
			if got.Mutation.BitPos != want.Mutation.BitPos || got.Mutation.Offset != want.Mutation.Offset {
				t.Fatalf("record %d: mutation drifted: %+v vs %+v", i, got.Mutation, want.Mutation)
			}
		}
	}
	// And the grid's own returned results came from this same disk state.
	if grid[0].Result.Tally != res.Tally {
		t.Fatal("grid result and loaded result disagree")
	}
}

// eqHeader is the header of the eq grid's bit-flip spec, as a campaign
// that stopped at stopIndex (0 = fixed budget) would persist it.
func eqHeader(stopIndex int) Header {
	h := NewHeader(core.CampaignMeta{
		Workload:     "eq",
		Signature:    core.Config{Model: core.MustModel("bit-flip")}.Signature(),
		ProfileCount: 8,
		Runs:         eqRuns,
		Seed:         eqSeed,
	})
	h.StopIndex = stopIndex
	return h
}

// TestSignatureValueRefusesForeignGeometry: the sector and block sizes,
// burst width and stride are fixed in core, so a header that stores other
// values describes records no campaign of this binary can reproduce, and
// SignatureValue refuses it. NewHeader's own values load.
func TestSignatureValueRefusesForeignGeometry(t *testing.T) {
	if _, err := eqHeader(0).SignatureValue(); err != nil {
		t.Fatalf("NewHeader's own header: %v", err)
	}
	for _, c := range []struct {
		field string
		value int
		edit  func(*FeatureRecord, int)
	}{
		{"sector_size", 4096, func(f *FeatureRecord, v int) { f.SectorSize = v }},
		{"block_size", 8192, func(f *FeatureRecord, v int) { f.BlockSize = v }},
		{"burst_sectors", 8, func(f *FeatureRecord, v int) { f.BurstSectors = v }},
		{"misdirect_every", 2, func(f *FeatureRecord, v int) { f.MisdirectEvery = v }},
	} {
		h := eqHeader(0)
		c.edit(&h.Feature, c.value)
		want := fmt.Sprintf("%s %d", c.field, c.value)
		if _, err := h.SignatureValue(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: got %v, want a refusal naming %q", c.field, err, want)
		}
	}
}

// TestSignatureValueRefusesForeignPrimitive: a model faults only its
// Host, so a header that puts bit-flip on truncate (hand-edited here)
// describes records no campaign of this binary wrote. SignatureValue
// refuses it naming both primitives, every path that loads the finalized
// spec fails, and a grid over either file appends no record to it.
func TestSignatureValueRefusesForeignPrimitive(t *testing.T) {
	raw, err := marshalLine(eqHeader(0))
	if err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(raw, []byte(`"primitive":"write"`), []byte(`"primitive":"truncate"`), 1)
	if bytes.Equal(edited, raw) {
		t.Fatalf("header carries no write primitive: %s", raw)
	}
	var h Header
	if err := json.Unmarshal(edited, &h); err != nil {
		t.Fatal(err)
	}
	if _, err := h.SignatureValue(); err == nil ||
		!strings.Contains(err.Error(), `"truncate"`) || !strings.Contains(err.Error(), `"write"`) {
		t.Fatalf("SignatureValue of bit-flip on truncate: err = %v, want a refusal naming truncate and write", err)
	}

	for _, final := range []bool{true, false} {
		st, err := Create(t.TempDir(), Manifest{Seed: eqSeed, Runs: eqRuns, Specs: []string{"eq/BF"}})
		if err != nil {
			t.Fatal(err)
		}
		path, indices := st.partialPath("eq/BF"), runsTo(0, 3, 1)
		if final {
			path, indices = st.finalPath("eq/BF"), runsTo(0, eqRuns, 1)
		}
		writeRecordFile(t, path, h, indices...)
		before, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		grid, gridErr := RunGrid(&core.Engine{Jobs: 1}, st, eqSpecs()[:1])
		if gridErr == nil {
			gridErr = grid[0].Err
		}
		errs := []error{gridErr}
		if final {
			_, resultErr := st.Result("eq/BF")
			_, reportErr := Report(st, "text")
			errs = append(errs, resultErr, reportErr)
		}
		for i, err := range errs {
			if err == nil {
				t.Fatalf("final=%v: load path %d accepted bit-flip on truncate", final, i)
			}
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
			t.Fatalf("final=%v: the record file changed (%v)", final, err)
		}
	}
}

// writeRecordFile hand-writes a record file at path: header h, then one
// benign record per run index, in the order given.
func writeRecordFile(t *testing.T, path string, h Header, indices ...int) {
	t.Helper()
	raw, err := marshalLine(h)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range indices {
		line, err := marshalLine(Record{Index: idx, Target: int64(idx), Outcome: classify.Benign.String()})
		if err != nil {
			t.Fatal(err)
		}
		raw = append(raw, line...)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// runsTo returns the run indices [lo, hi) stepping by step.
func runsTo(lo, hi, step int) []int {
	var out []int
	for i := lo; i < hi; i += step {
		out = append(out, i)
	}
	return out
}

// TestLoadSpecRejectsGappedFinalizedFile: a finalized file is the promise
// that every run is persisted, so loading one must find exactly runs
// [0, n) — n the stop index when set, the run budget otherwise. A gapped
// file (here the even indices an old -shard 0/2 store finalized) must fail
// loudly, naming the file, on every path that reads finalized specs.
func TestLoadSpecRejectsGappedFinalizedFile(t *testing.T) {
	for _, c := range []struct {
		name    string
		stop    int
		indices []int
		ok      bool
	}{
		{"complete", 0, runsTo(0, eqRuns, 1), true},
		{"adaptive stop", 10, runsTo(0, 10, 1), true},
		{"even indices", 0, runsTo(0, eqRuns, 2), false},
		{"short", 0, runsTo(0, eqRuns-1, 1), false},
		{"past the stop index", 10, runsTo(0, 11, 1), false},
	} {
		dir := t.TempDir()
		st, err := Create(dir, Manifest{Seed: eqSeed, Runs: eqRuns, Specs: []string{"eq/BF"}})
		if err != nil {
			t.Fatal(err)
		}
		writeRecordFile(t, st.finalPath("eq/BF"), eqHeader(c.stop), c.indices...)

		_, _, loadErr := st.LoadSpec("eq/BF")
		_, resultErr := st.Result("eq/BF")
		_, reportErr := Report(st, "text")
		_, gridErr := RunGrid(&core.Engine{Jobs: 1}, st, eqSpecs()[:1])
		for _, err := range []error{loadErr, resultErr, reportErr, gridErr} {
			if c.ok && err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if !c.ok && (err == nil || !strings.Contains(err.Error(), st.finalPath("eq/BF"))) {
				t.Fatalf("%s: err = %v, want a coverage error naming the file", c.name, err)
			}
		}
	}
}

// TestFinalizeRefusesShortStream: a sink holding runs [0, 5) of a 10-run
// campaign has not persisted every run, so Finalize must refuse and leave
// no finalized file behind.
func TestFinalizeRefusesShortStream(t *testing.T) {
	const runs = 10
	st, err := Create(t.TempDir(), Manifest{Seed: eqSeed, Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := st.SpecSink("eq/BF", runs)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	h := eqHeader(0)
	h.Runs = runs
	if err := sink.BeginHeader(h); err != nil {
		t.Fatal(err)
	}
	for i := range 5 {
		if err := sink.Append(Record{Index: i, Target: int64(i), Outcome: classify.Benign.String()}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Finalize(0); err == nil || !strings.Contains(err.Error(), "5 of 10 runs") {
		t.Fatalf("finalizing runs [0, 5) of 10: err = %v, want the short-stream refusal", err)
	}
	if st.finalized("eq/BF") {
		t.Fatal("a refused Finalize left a finalized .jsonl behind")
	}
}

// TestRunGridRejectsFinalizedSpecDrift: the finalized fast path must apply
// the same campaign-identity guard the partial-resume path enforces — a
// store answering for a different seed (or model, runs, ...) is an error,
// not a silently stale result.
func TestRunGridRejectsFinalizedSpecDrift(t *testing.T) {
	dir := t.TempDir()
	runGridInto(t, dir, 2)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	specs := eqSpecs()
	for i := range specs {
		specs[i].Config.Seed = eqSeed + 1
	}
	if _, err := RunGrid(&core.Engine{Jobs: 2}, st, specs); err == nil ||
		!strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("finalized specs from a drifted campaign must be rejected, got %v", err)
	}
}

// TestStoreLockExcludesConcurrentWriters: a second writer on the same store
// must fail fast instead of truncating and interleaving the first writer's
// partial files, and must not register its keys or pin their worlds in the
// manifest: the lock is taken before anything is adopted.
func TestStoreLockExcludesConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, Manifest{Seed: eqSeed, Runs: eqRuns})
	if err != nil {
		t.Fatal(err)
	}
	unlock, err := st.lock()
	if err != nil {
		t.Skipf("no advisory locks on this platform: %v", err)
	}
	defer unlock()
	want := manifestBytes(t, dir)

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	specs := eqSpecs()
	specs[0].WorldKey = "eq@object"
	if _, err := RunGrid(&core.Engine{Jobs: 2}, st2, specs); err == nil ||
		!strings.Contains(err.Error(), "another process") {
		t.Fatalf("second writer must be excluded, got %v", err)
	}
	if got := manifestBytes(t, dir); !bytes.Equal(got, want) {
		t.Fatalf("a grid refused by the lock changed the manifest:\n%s\nwant\n%s", got, want)
	}
}

// manifestBytes reads the store's manifest.json as it is on disk.
func manifestBytes(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDuplicateKeyGridRegistersNothing: a grid naming one key twice is
// refused before any of its keys is registered or any record file opened.
func TestDuplicateKeyGridRegistersNothing(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, Manifest{Seed: eqSeed, Runs: eqRuns})
	if err != nil {
		t.Fatal(err)
	}
	want := manifestBytes(t, dir)
	specs := eqSpecs()
	if _, err := RunGrid(&core.Engine{Jobs: 2}, st, append(specs, specs[0])); err == nil ||
		!strings.Contains(err.Error(), "duplicate spec key") {
		t.Fatalf("a duplicate key must be refused, got %v", err)
	}
	if got := manifestBytes(t, dir); !bytes.Equal(got, want) {
		t.Fatalf("a refused grid changed the manifest:\n%s\nwant\n%s", got, want)
	}
	if files, err := os.ReadDir(filepath.Join(dir, "records")); err != nil || len(files) != 0 {
		t.Fatalf("a refused grid left record files %v (%v)", files, err)
	}
}

// TestTwoHandlesKeepEachOthersSpecs: grids run one after the other through
// two handles on one store must both stay registered. Each adoption reads
// the manifest under the lock, so the second handle's stale copy never
// overwrites the first grid's key, and Report still lists it.
func TestTwoHandlesKeepEachOthersSpecs(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, Manifest{Seed: eqSeed, Runs: eqRuns}); err != nil {
		t.Fatal(err)
	}
	h1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	specs := eqSpecs()
	for i, h := range []*Store{h1, h2} {
		grid, err := RunGrid(&core.Engine{Jobs: 2}, h, specs[i:i+1])
		if err != nil || grid[0].Err != nil {
			t.Fatalf("grid %d: %v / %v", i, err, grid[0].Err)
		}
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.Manifest().Specs, []string{"eq/BF", "eq/DW"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("manifest specs %v, want %v", got, want)
	}
	text, err := Report(h2, "text")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "eq/BF") || !strings.Contains(text, "eq/DW") {
		t.Fatalf("report drops a spec:\n%s", text)
	}
}

// TestInvalidStopRuleFailsItsCell: a spec whose stopping rule does not
// normalize fails its own cell, not the grid, whether the spec still has
// runs to execute or is finalized already. A finalized fixed-budget spec
// is not served under an invalid rule.
func TestInvalidStopRuleFailsItsCell(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, Manifest{Seed: eqSeed, Runs: eqRuns})
	if err != nil {
		t.Fatal(err)
	}
	specs := eqSpecs()
	grid, err := RunGrid(&core.Engine{Jobs: 2}, st, specs[:1])
	if err != nil || grid[0].Err != nil {
		t.Fatalf("fixed-budget grid: %v / %v", err, grid[0].Err)
	}
	for i := range specs {
		specs[i].Config.Stop = &stats.StopRule{TargetHalfWidth: 2}
	}
	grid, err = RunGrid(&core.Engine{Jobs: 2}, st, specs) // eq/BF finalized, eq/DW pending
	if err != nil {
		t.Fatalf("an invalid stop rule failed the grid: %v", err)
	}
	for _, r := range grid {
		if r.Err == nil || !strings.Contains(r.Err.Error(), "stop rule") {
			t.Errorf("%s: err = %v, want the stop rule's error", r.Spec.Key, r.Err)
		}
	}
}
