package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ffis/internal/core"
)

// objectWorldGolden holds the records of campaigns whose worlds store
// their bytes in vfs.ObjectFS. Regenerate only after an intentional record
// change:
//
//	UPDATE_GOLDEN=1 go test -run TestObjectWorldRecordsPinned ./internal/experiments/
const objectWorldGolden = "testdata/object_worlds.jsonl.golden"

// objectWorldSpecs are the pinned campaigns. MT2 keeps its projections on
// an object store with a consistency lag of 2: read faults are armed
// there, while dropped writes, which MT2 never issues to /proj, are armed
// on the whole world. MT1 writes the projections, so its dropped writes
// are armed on the object store. The tiered Nyx pipeline runs with every
// tier an object store, under short reads armed on the plotfile tier.
func objectWorldSpecs() []WireSpec {
	mounts, proj := []string{"/proj=object:lag=2", "/mosaic"}, []string{"/proj"}
	return []WireSpec{
		{Cell: "MT2", Model: "dropped-write", Runs: 24, Seed: 2021, Mounts: mounts},
		{Cell: "MT2", Model: "latent-corruption", Runs: 24, Seed: 2021, Mounts: mounts, ArmMounts: proj},
		{Cell: "MT2", Model: "read-bit-flip", Runs: 24, Seed: 2021, Mounts: mounts, ArmMounts: proj},
		{Cell: "MT1", Model: "dropped-write", Runs: 24, Seed: 2021, Mounts: mounts, ArmMounts: proj},
		{
			Cell: "nyx", Model: "short-read", Runs: 24, Seed: 2021, NyxN: 24,
			Tiered: true, Backend: "object", ArmMounts: []string{"/plt00000"},
		},
	}
}

// objectWorldLines runs the pinned campaigns on an engine of the given
// width and returns their store lines, each spec's records after a line
// naming its key.
func objectWorldLines(t *testing.T, jobs int) []string {
	t.Helper()
	grid, err := Options{Engine: &core.Engine{Jobs: jobs}}.runGrid(objectWorldSpecs())
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, g := range grid {
		head, err := json.Marshal(struct {
			Key string `json:"key"`
		}{g.Spec.Key})
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(head))
		lines = append(lines, recordLines(t, g)...)
	}
	return lines
}

// TestObjectWorldRecordsPinned pins the records of object-world campaigns
// byte for byte, at jobs 1 and 8, against a golden written before
// ObjectFS was rebuilt on MemFS: the object store's meter, consistency
// window and storage may change how the bytes are held, never what a run
// reads.
func TestObjectWorldRecordsPinned(t *testing.T) {
	if os.Getenv("UPDATE_GOLDEN") != "" {
		lines := objectWorldLines(t, 1)
		if err := os.MkdirAll(filepath.Dir(objectWorldGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(objectWorldGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(objectWorldGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	for _, jobs := range []int{1, 8} {
		got := objectWorldLines(t, jobs)
		if len(got) != len(want) {
			t.Fatalf("jobs %d: %d lines, golden has %d", jobs, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("jobs %d line %d differs from the golden\n  golden %s\n  got    %s", jobs, i+1, want[i], got[i])
			}
		}
	}
	if n := strings.Count(string(raw), `"fired":true`); n == 0 {
		t.Fatal("no pinned run fired its fault; the golden proves nothing")
	}
}
