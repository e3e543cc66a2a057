package results

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/stats"
)

// mutationShapes is one hand-built mutation per shape each registered model
// records (see its Mutate hooks), with the shot count its record carries.
// Model is stamped from the registry by name. The Kept-only shorn-write and
// the length-less dropped-write shapes are what the retired mknod, chmod
// and truncate hooks recorded; they stay pinned so stores written then
// still decode.
var mutationShapes = []struct {
	model string
	shots int
	m     core.Mutation
}{
	{"bit-flip", 1, core.Mutation{Path: "/out/a.h5", Offset: 4096, Length: 512, BitPos: 1234}},
	{"bit-flip", 1, core.Mutation{Path: "/out/a.h5", Offset: 8192, BitPos: 7}},
	{"shorn-write", 1, core.Mutation{Path: "/out/b.fits", Offset: 2880, Length: 5760, Kept: 3584, Sectors: 1}},
	{"shorn-write", 1, core.Mutation{Path: "/out/b.fits", Kept: 4}},
	{"dropped-write", 1, core.Mutation{Path: "/out/c.dat", Offset: 100, Length: 64, Dropped: true}},
	{"dropped-write", 1, core.Mutation{Path: "/out/c.dat", Offset: 32, Dropped: true}},
	{"dropped-write", 1, core.Mutation{Path: "/out/dir", Dropped: true}},
	{"misdirected-write", 1, core.Mutation{Path: "/out/d.dat", Offset: 4096, Length: 512, Detail: "persisted at offset 2560"}},
	{"misdirected-write", 1, core.Mutation{Path: "/out/d.dat", Offset: 0, Length: 512, Dropped: true,
		Detail: "misdirected to offset 1024 and lost (no space)"}},
	{"repeated-misdirection", 4, core.Mutation{Path: "/out/e.dat", Offset: 8192, Length: 1024, Detail: "shot 3 persisted at offset 6144"}},
	{"burst-corruption", 1, core.Mutation{Path: "/out/f.dat", Offset: 0, Length: 4096, BitPos: 4100, Sectors: 3,
		Detail: "burst over 3 adjacent sectors from sector 1"}},
	{"device-failure", 3, core.Mutation{Path: "/out/g.dat", Offset: 512, Length: 256, Detail: "shot 3: write refused"}},
	{"read-bit-flip", 1, core.Mutation{Path: "/in/h.fits", Offset: 2880, Length: 2880, BitPos: 0}},
	{"unreadable-sector", 1, core.Mutation{Path: "/in/i.fits", Offset: 512, Length: 2880, Unreadable: true}},
	{"latent-corruption", 1, core.Mutation{Path: "/in/j.h5", Offset: 1024, Length: 512, BitPos: 77, Latent: true}},
	{"latent-corruption", 1, core.Mutation{Path: "/in/j.h5", Offset: 9000, BitPos: -1, Latent: true}},
	{"short-read", 1, core.Mutation{Path: "/in/k.dat", Offset: 0, Length: 4096, Kept: 1000}},
}

// TestSchemaLinesPinned pins the bytes of the header and record lines no
// campaign golden reaches: the header of an adaptive spec after finalize
// (stop_rule, stop_index), headers with a shots override and a non-default
// feature, and one record per mutation shape of every registered model,
// plus an unfired record with a run error and a fired one with no model.
// Every pinned line must also decode and re-encode to itself, which is what
// lets the coordinator re-marshal a worker's records without drift.
//
// Regenerate only after an intentional format change:
//
//	UPDATE_GOLDEN=1 go test -run TestSchemaLinesPinned ./internal/results/
func TestSchemaLinesPinned(t *testing.T) {
	const golden = "testdata/schema_lines.golden"
	var out bytes.Buffer
	var lines [][]byte
	emit := func(v any) {
		t.Helper()
		b, err := marshalLine(v)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		lines = append(lines, b)
	}

	meta := func(cfg core.Config) core.CampaignMeta {
		return core.CampaignMeta{Workload: "MT2", Signature: cfg.Signature(), ProfileCount: 42, Runs: 10, Seed: 7}
	}
	emit(NewHeader(meta(core.Config{Model: core.MustModel("repeated-misdirection"), Shots: 3})))
	emit(NewHeader(meta(core.Config{Model: core.MustModel("shorn-write"),
		Feature: core.Feature{FlipBits: 4, ShornKeepNum: 3, ShornKeepDen: 8}})))

	// The adaptive header as Finalize rewrites it, with the stop index.
	rule, err := stats.StopRule{TargetHalfWidth: 0.05, MinRuns: 4, CheckEvery: 3}.Normalize(10)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Create(t.TempDir(), Manifest{Seed: 7, Runs: 10})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := st.SpecSink("MT2/BF", 10)
	if err != nil {
		t.Fatal(err)
	}
	am := meta(core.Config{Model: core.MustModel("bit-flip")})
	am.Stop = &rule
	if err := sink.BeginCampaign(am); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := sink.Record(core.RunRecord{Index: i, Target: int64(i), Outcome: classify.Benign}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Finalize(4); err != nil {
		t.Fatal(err)
	}
	final, err := os.ReadFile(st.finalPath("MT2/BF"))
	if err != nil {
		t.Fatal(err)
	}
	hdr := final[:bytes.IndexByte(final, '\n')+1]
	out.Write(hdr)
	lines = append(lines, hdr)

	shaped := map[string]bool{}
	for i, s := range mutationShapes {
		m := s.m
		m.Model = core.MustModel(s.model)
		shaped[s.model] = true
		emit(NewRecord(core.RunRecord{Index: i, Target: int64(100 + i), Outcome: classify.SDC,
			Fired: true, Shots: s.shots, Mutation: m}))
	}
	for _, m := range core.AllModels() {
		if !shaped[m.Name()] {
			t.Errorf("registered model %s has no mutation shape pinned here", m.Name())
		}
	}
	emit(NewRecord(core.RunRecord{Index: 0, Target: 3, Outcome: classify.Crash,
		RunErr: errors.New("mAdd: short read"), SimNanos: 1500}))
	emit(NewRecord(core.RunRecord{Index: 1, Target: 4, Outcome: classify.Benign, Fired: true,
		Mutation: core.Mutation{Path: "/x", Offset: 1, BitPos: 2}}))

	for i, line := range lines {
		var v any = &Record{}
		if bytes.HasPrefix(line, []byte(`{"ffis_records"`)) {
			v = &Header{}
		}
		if err := json.Unmarshal(line, v); err != nil {
			t.Fatal(err)
		}
		if again, err := marshalLine(v); err != nil || !bytes.Equal(again, line) {
			t.Errorf("line %d does not survive decode and re-encode (%v):\n got %s\nwant %s", i, err, again, line)
		}
	}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("schema lines drifted from the golden.\n--- got ---\n%s--- want ---\n%s", out.Bytes(), want)
	}
}
