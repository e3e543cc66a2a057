package experiments

import (
	"strings"
	"testing"
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
		WireSpec{
			Cell: "nyx", Model: "short-read", Runs: 24, Seed: 2021, NyxN: 24,
			ArmMounts: []string{"/plt00000"},
		}.tiered("object"),
	}
}

// TestObjectWorldRecordsPinned pins the records of object-world campaigns
// byte for byte, at jobs 1 and 8, against a golden written before
// ObjectFS was rebuilt on MemFS: the object store's meter, consistency
// window and storage may change how the bytes are held, never what a run
// reads.
func TestObjectWorldRecordsPinned(t *testing.T) {
	raw := checkGridGolden(t, objectWorldGolden, objectWorldSpecs())
	if n := strings.Count(raw, `"fired":true`); n == 0 {
		t.Fatal("no pinned run fired its fault; the golden proves nothing")
	}
}
