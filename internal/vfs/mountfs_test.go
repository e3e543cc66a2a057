package vfs

import (
	"errors"
	"testing"
)

func newWorld(t *testing.T) (*MountFS, *MemFS, *MemFS, *MemFS) {
	t.Helper()
	root, scratch, out := NewMemFS(), NewMemFS(), NewMemFS()
	m := NewMountFS(root)
	if err := m.Mount("/scratch", scratch); err != nil {
		t.Fatalf("mount /scratch: %v", err)
	}
	if err := m.Mount("/out", out); err != nil {
		t.Fatalf("mount /out: %v", err)
	}
	return m, root, scratch, out
}

func TestMountRouting(t *testing.T) {
	m, root, scratch, _ := newWorld(t)
	if err := WriteFile(m, "/scratch/f", []byte("tier")); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The bytes live in the scratch backend under their table path.
	got, err := ReadFile(scratch, "/scratch/f")
	if err != nil || string(got) != "tier" {
		t.Fatalf("scratch backend content = %q, %v; want \"tier\"", got, err)
	}
	if Exists(root, "/scratch/f") {
		t.Fatalf("root backend must not see the routed file")
	}
	// And reading back through the table round-trips.
	got, err = ReadFile(m, "/scratch/f")
	if err != nil || string(got) != "tier" {
		t.Fatalf("mounted read = %q, %v; want \"tier\"", got, err)
	}
	// Root-owned paths stay in the root backend.
	if err := WriteFile(m, "/home.txt", []byte("x")); err != nil {
		t.Fatalf("root write: %v", err)
	}
	if !Exists(root, "/home.txt") {
		t.Fatalf("root backend must own /home.txt")
	}
}

func TestMountNestedShadowing(t *testing.T) {
	m, _, scratch, _ := newWorld(t)
	tmp := NewMemFS()
	if err := m.Mount("/scratch/tmp", tmp); err != nil {
		t.Fatalf("nested mount: %v", err)
	}
	if err := WriteFile(m, "/scratch/tmp/f", []byte("inner")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !Exists(tmp, "/scratch/tmp/f") {
		t.Fatalf("nested mount must shadow its ancestor")
	}
	if Exists(scratch, "/scratch/tmp/f") {
		t.Fatalf("shadowed ancestor must not receive the write")
	}
	// A sibling path on the outer mount still routes to the outer backend.
	if err := WriteFile(m, "/scratch/other", []byte("outer")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !Exists(scratch, "/scratch/other") {
		t.Fatalf("outer mount must keep non-shadowed paths")
	}
}

func TestMountSegmentBoundaryTies(t *testing.T) {
	m, root, scratch, _ := newWorld(t)
	// /scratchpad shares a string prefix with the /scratch mount but not a
	// path-segment prefix: it must route to the root backend.
	if err := m.MkdirAll("/scratchpad"); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if err := WriteFile(m, "/scratchpad/x", []byte("pad")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !Exists(root, "/scratchpad/x") || Exists(scratch, "/scratchpad/x") {
		t.Fatalf("/scratchpad must route to root, not the /scratch mount")
	}
	// Same-length sibling mounts resolve unambiguously.
	a, b := NewMemFS(), NewMemFS()
	if err := m.Mount("/ta", a); err != nil {
		t.Fatalf("mount: %v", err)
	}
	if err := m.Mount("/tb", b); err != nil {
		t.Fatalf("mount: %v", err)
	}
	if err := WriteFile(m, "/tb/x", []byte("b")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if Exists(a, "/tb/x") || !Exists(b, "/tb/x") {
		t.Fatalf("sibling mounts of equal path length must not alias")
	}
	if err := WriteFile(m, "/ta/whatever", []byte("a")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !Exists(a, "/ta/whatever") || Exists(b, "/ta/whatever") {
		t.Fatalf("/ta/whatever must route to the /ta mount")
	}
}

func TestMountCrossMountRename(t *testing.T) {
	m, _, _, _ := newWorld(t)
	if err := WriteFile(m, "/scratch/result", []byte("data")); err != nil {
		t.Fatalf("write: %v", err)
	}
	err := m.Rename("/scratch/result", "/out/result")
	if !errors.Is(err, ErrCrossMount) {
		t.Fatalf("cross-mount rename = %v; want ErrCrossMount", err)
	}
	// Same-mount rename still works, including on the root mount.
	if err := m.Rename("/scratch/result", "/scratch/final"); err != nil {
		t.Fatalf("same-mount rename: %v", err)
	}
	if !Exists(m, "/scratch/final") || Exists(m, "/scratch/result") {
		t.Fatalf("same-mount rename did not move the file")
	}
}

func TestMountReadDirBoundary(t *testing.T) {
	m, _, _, _ := newWorld(t)
	if err := WriteFile(m, "/scratch/a.dat", []byte("a")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := WriteFile(m, "/top.txt", []byte("t")); err != nil {
		t.Fatalf("write: %v", err)
	}
	// The parent listing shows the materialized mount points as directories.
	infos, err := m.ReadDir("/")
	if err != nil {
		t.Fatalf("readdir /: %v", err)
	}
	byName := map[string]FileInfo{}
	for _, in := range infos {
		byName[in.Name] = in
	}
	for _, want := range []string{"scratch", "out", "top.txt"} {
		if _, ok := byName[want]; !ok {
			t.Fatalf("readdir / missing %q (got %v)", want, infos)
		}
	}
	if !byName["scratch"].IsDir || !byName["out"].IsDir {
		t.Fatalf("mount points must list as directories")
	}
	// Listing the mount point itself lists the mounted backend's copy of it.
	infos, err = m.ReadDir("/scratch")
	if err != nil {
		t.Fatalf("readdir /scratch: %v", err)
	}
	if len(infos) != 1 || infos[0].Name != "a.dat" {
		t.Fatalf("readdir /scratch = %v; want [a.dat]", infos)
	}
	// Stat at the boundary reports a directory named after the mount point.
	info, err := m.Stat("/scratch")
	if err != nil || !info.IsDir || info.Name != "scratch" {
		t.Fatalf("stat /scratch = %+v, %v; want dir named scratch", info, err)
	}
	// Walk crosses the boundary transparently.
	var walked []string
	if err := Walk(m, "/", func(p string, _ FileInfo) error {
		walked = append(walked, p)
		return nil
	}); err != nil {
		t.Fatalf("walk: %v", err)
	}
	want := map[string]bool{"/scratch/a.dat": true, "/top.txt": true}
	for _, p := range walked {
		delete(want, p)
	}
	if len(want) != 0 {
		t.Fatalf("walk missed %v (walked %v)", want, walked)
	}
}

func TestMountTableGuards(t *testing.T) {
	m, root, _, _ := newWorld(t)
	// Mount point paths are busy for unlink-style operations.
	if err := m.Remove("/scratch"); !errors.Is(err, ErrMountBusy) {
		t.Fatalf("remove mount point = %v; want ErrMountBusy", err)
	}
	if err := m.Remove("/"); !errors.Is(err, ErrMountBusy) {
		t.Fatalf("remove above mount point = %v; want ErrMountBusy", err)
	}
	if err := WriteFile(m, "/f", []byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := m.Rename("/f", "/scratch"); !errors.Is(err, ErrMountBusy) {
		t.Fatalf("rename onto mount point = %v; want ErrMountBusy", err)
	}
	// Duplicate and root mounts are rejected.
	if err := m.Mount("/scratch", NewMemFS()); !errors.Is(err, ErrMountBusy) {
		t.Fatalf("duplicate mount = %v; want ErrMountBusy", err)
	}
	if err := m.Mount("/", NewMemFS()); !errors.Is(err, ErrMountBusy) {
		t.Fatalf("mount over / = %v; want ErrMountBusy", err)
	}
	// Mounting over an existing regular file cannot materialize a directory.
	if err := WriteFile(m, "/plainfile", []byte("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := m.Mount("/plainfile", NewMemFS()); !errors.Is(err, ErrNotDir) {
		t.Fatalf("mount over file = %v; want ErrNotDir", err)
	}
	// Mount materializes the mount-point directory in the covering backend.
	if info, err := root.Stat("/out"); err != nil || !info.IsDir {
		t.Fatalf("materialized mount dir should exist in root: %+v, %v", info, err)
	}
}

func TestMountWithInterposed(t *testing.T) {
	m, _, _, _ := newWorld(t)
	var lat *LatencyFS
	armed, err := m.WithInterposed("/scratch", func(inner FS) FS {
		lat = NewLatencyFS(inner, BurstBufferModel)
		return lat
	})
	if err != nil {
		t.Fatalf("interpose: %v", err)
	}
	// Writes through the armed view hit the wrapper and the shared backend.
	if err := WriteFile(armed, "/scratch/f", []byte("shared")); err != nil {
		t.Fatalf("write: %v", err)
	}
	seen := lat.SimElapsed()
	if seen == 0 {
		t.Fatal("interposed wrapper saw none of the armed-mount I/O")
	}
	// I/O outside the interposed mount bypasses the wrapper entirely.
	if err := WriteFile(armed, "/out/g", []byte("clean")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if got := lat.SimElapsed(); got != seen {
		t.Fatalf("other-mount I/O leaked into the wrapper (clock %v -> %v)", seen, got)
	}
	// The original table shares storage but not the wrapper.
	if data, err := ReadFile(m, "/scratch/f"); err != nil || string(data) != "shared" {
		t.Fatalf("original view = %q, %v; want shared backend content", data, err)
	}
	if got := lat.SimElapsed(); got != seen {
		t.Fatalf("reads through the original table must not reach the wrapper (clock %v -> %v)", seen, got)
	}
	if _, err := m.WithInterposed("/nope", func(inner FS) FS { return inner }); !errors.Is(err, ErrNotExist) {
		t.Fatalf("interpose on unknown mount = %v; want ErrNotExist", err)
	}
}

// TestMountErrorNamesTablePath: an error raised inside a mounted backend
// names the path the application used, not a mount-relative one.
func TestMountErrorNamesTablePath(t *testing.T) {
	m := NewMountFS(NewMemFS())
	if err := m.Mount("/proj", NewMemFS()); err != nil {
		t.Fatal(err)
	}
	_, err := m.Open("/proj/p03.fits")
	var pe *PathError
	if !errors.As(err, &pe) || pe.Path != "/proj/p03.fits" || !errors.Is(err, ErrNotExist) {
		t.Fatalf("open missing mounted file = %v; want a not-exist PathError on /proj/p03.fits", err)
	}
}

func TestMountFileNameIsTableAbsolute(t *testing.T) {
	m, _, _, _ := newWorld(t)
	f, err := m.Create("/scratch/deep.bin")
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	defer f.Close()
	if got := f.Name(); got != "/scratch/deep.bin" {
		t.Fatalf("handle name = %q; want the table-absolute path", got)
	}
}
