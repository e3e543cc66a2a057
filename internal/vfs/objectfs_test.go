package vfs

import (
	"bytes"
	"errors"
	"testing"
)

// TestObjectFSConsistencyLag pins the deterministic eventual-consistency
// window: after an object is overwritten via Create, the next lag opens
// observe the previous version read-only, then the store converges. Stat
// and ReadDir always answer from the current generation (LIST/HEAD vs GET
// divergence).
func TestObjectFSConsistencyLag(t *testing.T) {
	fs := NewObjectFS()
	fs.SetConsistencyLag(2)
	if err := WriteFile(fs, "/k", []byte("version-one")); err != nil {
		t.Fatal(err)
	}
	// The first write of a key is not an overwrite: reads converge at once.
	if got, _ := ReadFile(fs, "/k"); string(got) != "version-one" {
		t.Fatalf("fresh key read %q", got)
	}
	if err := WriteFile(fs, "/k", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	// The next two opens serve the stale version...
	for i := 0; i < 2; i++ {
		got, err := ReadFile(fs, "/k")
		if err != nil || string(got) != "version-one" {
			t.Fatalf("stale open %d: %q, %v (want version-one)", i, got, err)
		}
	}
	// ...and the third converges.
	if got, _ := ReadFile(fs, "/k"); string(got) != "v2" {
		t.Fatalf("converged read %q, want v2", got)
	}
	if got, _ := ReadFile(fs, "/k"); string(got) != "v2" {
		t.Fatal("store regressed after convergence")
	}
	// Metadata always answers from the current generation.
	fs.SetConsistencyLag(1)
	if err := WriteFile(fs, "/k", []byte("longer-third-version")); err != nil {
		t.Fatal(err)
	}
	if info, err := fs.Stat("/k"); err != nil || info.Size != int64(len("longer-third-version")) {
		t.Fatalf("Stat during lag window: %+v, %v (want current size)", info, err)
	}
	if got, _ := ReadFile(fs, "/k"); string(got) != "v2" {
		t.Fatal("lag window did not serve the pre-overwrite version")
	}
	if got, _ := ReadFile(fs, "/k"); string(got) != "longer-third-version" {
		t.Fatal("store did not converge after the lag window")
	}
}

// TestObjectFSStaleVersionIsReadOnly: a handle served from the
// eventual-consistency window is detached and read-only — writing through
// it must fail rather than resurrect the old object.
func TestObjectFSStaleVersionIsReadOnly(t *testing.T) {
	fs := NewObjectFS()
	fs.SetConsistencyLag(1)
	WriteFile(fs, "/k", []byte("old"))
	WriteFile(fs, "/k", []byte("new"))
	f, err := fs.Open("/k")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 3)
	if _, err := f.ReadAt(buf, 0); err != nil || string(buf) != "old" {
		t.Fatalf("stale handle read %q, %v", buf, err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("stale handle write err = %v, want ErrReadOnly", err)
	}
}

// TestObjectFSRemoveClearsStale: deleting or renaming a key, or a
// directory above it, also drops its pending stale version — a removed
// object must not reappear through the consistency window.
func TestObjectFSRemoveClearsStale(t *testing.T) {
	fs := NewObjectFS()
	fs.SetConsistencyLag(3)
	WriteFile(fs, "/k", []byte("old"))
	WriteFile(fs, "/k", []byte("new"))
	if err := fs.Remove("/k"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("/k"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("open after remove = %v, want ErrNotExist", err)
	}
	if err := WriteFile(fs, "/k", []byte("reborn")); err != nil {
		t.Fatal(err)
	}
	if got, _ := ReadFile(fs, "/k"); string(got) != "reborn" {
		t.Fatalf("recreated key served ghost version: %q", got)
	}

	// Renaming a directory drops the windows of every key under it; a
	// same-path rename moves nothing and keeps its own.
	fs.MkdirAll("/d/sub")
	WriteFile(fs, "/d/sub/k", []byte("old"))
	WriteFile(fs, "/d/sub/k", []byte("new"))
	if err := fs.Rename("/d", "/e"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/d", "/d"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("same-path rename of a moved tree = %v, want ErrNotExist", err)
	}
	fs.MkdirAll("/d/sub")
	WriteFile(fs, "/d/sub/k", []byte("reborn"))
	if got, _ := ReadFile(fs, "/d/sub/k"); string(got) != "reborn" {
		t.Fatalf("recreated key served ghost version: %q", got)
	}
	WriteFile(fs, "/s", []byte("old"))
	WriteFile(fs, "/s", []byte("new"))
	if err := fs.Rename("/s", "/s"); err != nil {
		t.Fatal(err)
	}
	if got, _ := ReadFile(fs, "/s"); string(got) != "old" {
		t.Fatalf("same-path rename ended the window: read %q, want \"old\"", got)
	}
}

// TestObjectFSCloneCOW: clones share sealed versions until either side
// writes, and the consistency window carries over so a cloned world replays the same
// anomaly schedule — the property that makes COW snapshots
// tally-equivalent to fresh rebuilds.
func TestObjectFSCloneCOW(t *testing.T) {
	fs := NewObjectFS()
	fs.SetConsistencyLag(1)
	WriteFile(fs, "/k", []byte("old"))
	WriteFile(fs, "/k", []byte("new"))
	WriteFile(fs, "/other", bytes.Repeat([]byte{7}, 128))

	clone := fs.Clone()
	// Divergence: writes on the clone stay off the original.
	if err := WriteFile(clone, "/other", []byte("clone-side")); err != nil {
		t.Fatal(err)
	}
	if got, _ := ReadFile(fs, "/other"); !bytes.Equal(got, bytes.Repeat([]byte{7}, 128)) {
		t.Fatal("clone write leaked into the original")
	}
	// The stale window was copied: both sides serve the old version exactly
	// once more, independently.
	if got, _ := ReadFile(clone, "/k"); string(got) != "old" {
		t.Fatalf("clone lost the pending stale version: %q", got)
	}
	if got, _ := ReadFile(fs, "/k"); string(got) != "old" {
		t.Fatalf("original lost the pending stale version: %q", got)
	}
	if got, _ := ReadFile(clone, "/k"); string(got) != "new" {
		t.Fatalf("clone did not converge: %q", got)
	}
	if got, _ := ReadFile(fs, "/k"); string(got) != "new" {
		t.Fatalf("original did not converge: %q", got)
	}
}

// TestObjectFSCloneIsolationUnderMutation drives a partial overwrite
// through a sealed shared version and checks the other side's bytes stay
// frozen byte-for-byte.
func TestObjectFSCloneIsolationUnderMutation(t *testing.T) {
	fs := NewObjectFS()
	content := bytes.Repeat([]byte{0xAB}, 4096)
	WriteFile(fs, "/obj", content)
	clone := fs.Clone()
	f, err := clone.Append("/obj")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xCD}, 2048); err != nil {
		t.Fatal(err)
	}
	f.Close()
	orig, _ := ReadFile(fs, "/obj")
	if !bytes.Equal(orig, content) {
		t.Fatal("mutating a sealed version through the clone changed the original")
	}
	mutated, _ := ReadFile(clone, "/obj")
	if mutated[2048] != 0xCD || mutated[0] != 0xAB || len(mutated) != 4096 {
		t.Fatal("clone-side RMW produced the wrong object")
	}
}
