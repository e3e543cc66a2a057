package vfs

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// releasedWorlds builds each recycling world shape over one pristine tree:
// a bare MemFS clone, a MountFS clone whose /lat tier is a LatencyFS, and
// an ObjectFS clone whose /top was overwritten inside a consistency window
// of 3 Opens.
func releasedWorlds(t *testing.T) map[string]FS {
	t.Helper()
	mem := NewMemFS()
	buildTree(t, mem)
	root := NewMemFS()
	mounted := NewMountFS(root)
	lat := NewMemFS()
	if err := mounted.Mount("/lat", NewLatencyFS(lat, BurstBufferModel)); err != nil {
		t.Fatal(err)
	}
	buildTree(t, mounted)
	if err := WriteFile(mounted, "/lat/f", []byte("tiered")); err != nil {
		t.Fatal(err)
	}
	mc, err := mounted.Clone()
	if err != nil {
		t.Fatal(err)
	}
	obj := NewObjectFS()
	obj.SetConsistencyLag(3)
	buildTree(t, obj)
	if err := WriteFile(obj, "/top", []byte("top v2")); err != nil {
		t.Fatal(err)
	}
	return map[string]FS{"memfs": mem.Clone(), "mountfs": mc, "objectfs": obj.Clone()}
}

// TestReleasedWorldFailsWithErrReleased pins that a released world never
// reads as an empty tree: every operation on it, and on the handles it
// had open, fails with ErrReleased. On ObjectFS that includes a handle
// served from the consistency window, and an Open of a key whose window
// was still pending.
func TestReleasedWorldFailsWithErrReleased(t *testing.T) {
	for name, world := range releasedWorlds(t) {
		t.Run(name, func(t *testing.T) {
			var list BlockList
			Attach(world, &list)
			paths := []string{"/top", "/a/b/one"}
			if _, ok := world.(*MountFS); ok {
				paths = append(paths, "/lat/f")
			}
			var handles []File
			if _, ok := world.(*ObjectFS); ok {
				stale, err := world.Open("/top")
				if err != nil {
					t.Fatal(err)
				}
				if got, err := io.ReadAll(stale); err != nil || string(got) != "top" {
					t.Fatalf("window served %q, %v; want the superseded \"top\"", got, err)
				}
				handles = append(handles, stale)
			}
			for _, p := range paths {
				w, err := world.Append(p)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := w.Write([]byte("owned")); err != nil {
					t.Fatal(err)
				}
				r, err := world.Open(p)
				if err != nil {
					t.Fatal(err)
				}
				handles = append(handles, w, r)
			}
			Release(world)

			check := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, ErrReleased) {
					t.Errorf("%s after release: %v, want ErrReleased", what, err)
				}
			}
			for _, p := range paths {
				_, err := world.Create(p)
				check("Create "+p, err)
				_, err = world.Open(p)
				check("Open "+p, err)
				_, err = world.Append(p)
				check("Append "+p, err)
				_, err = world.Stat(p)
				check("Stat "+p, err)
				check("Truncate "+p, world.Truncate(p, 1))
				check("Remove "+p, world.Remove(p))
				check("Rename "+p, world.Rename(p, p+".new"))
			}
			_, err := world.ReadDir("/a")
			check("ReadDir", err)
			check("MkdirAll", world.MkdirAll("/a/b/c"))
			if c, ok := world.(Cloner); ok {
				_, err := c.CloneFS()
				check("CloneFS", err)
			}
			buf := make([]byte, 4)
			for _, f := range handles {
				_, err := f.Read(buf)
				check("Read", err)
				_, err = f.ReadAt(buf, 0)
				check("ReadAt", err)
				_, err = f.Write(buf)
				check("Write", err)
				_, err = f.WriteAt(buf, 0)
				check("WriteAt", err)
				_, err = f.Seek(0, 0)
				check("Seek", err)
				_, err = f.Size()
				check("Size", err)
				check("Sync", f.Sync())
				check("Close", f.Close())
			}
		})
	}
}

// TestReleaseRecyclesOnlyOwnedBlocks pins the block lifecycle: a clone
// attached to a list takes every block it writes from the list at full
// BlockSize capacity and hands exactly those back on release, while the
// sealed blocks it shared with its snapshot stay intact — also in poison
// mode — and the next world drawing from the list reads zeros, not the
// previous run's bytes. On ObjectFS each run also overwrites an object it
// wrote inside the consistency window: the superseded version's block is
// sealed into the window, so it never reaches the list.
func TestReleaseRecyclesOnlyOwnedBlocks(t *testing.T) {
	if !poisonReleased {
		poisonReleased = true
		defer func() { poisonReleased = false }()
	}
	obj := NewObjectFS()
	obj.SetConsistencyLag(1)
	for _, tc := range []struct {
		name     string
		pristine FS
		recycled int
	}{
		{"MemFS", NewMemFS(), 2},
		{"ObjectFS", obj, 3},
	} {
		t.Run(tc.name, func(t *testing.T) { checkRecycling(t, tc.pristine, tc.recycled) })
	}
}

// checkRecycling runs three clones of one pristine tree on one list and
// checks that each recycles exactly recycled blocks.
func checkRecycling(t *testing.T, pristine FS, recycled int) {
	buildTree(t, pristine)
	// Full blocks the clones share but never write: sealed at BlockSize
	// capacity, yet never theirs to recycle.
	if err := WriteFile(pristine, "/full", bytes.Repeat([]byte("f"), 2*BlockSize)); err != nil {
		t.Fatal(err)
	}
	want := snapshotAll(t, pristine)
	var list BlockList
	for run := 0; run < 3; run++ {
		world, err := pristine.(Cloner).CloneFS()
		if err != nil {
			t.Fatal(err)
		}
		Attach(world, &list)
		f, err := world.Append("/a/two") // one sealed block, copied on write
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("run"), 1); err != nil {
			t.Fatal(err)
		}
		// /top grows past its sealed first block into a new second one,
		// whose first bytes the write skips.
		g, err := world.Append("/top")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := g.WriteAt([]byte("tail"), BlockSize+4); err != nil {
			t.Fatal(err)
		}
		if _, ok := world.(*ObjectFS); ok {
			for _, v := range []string{"first", "second"} {
				if err := WriteFile(world, "/v", []byte(v)); err != nil {
					t.Fatal(err)
				}
			}
			if got, err := ReadFile(world, "/v"); err != nil || string(got) != "first" {
				t.Fatalf("run %d: window served %q, %v; want the superseded \"first\"", run, got, err)
			}
		}
		got := snapshotAll(t, world)
		if !bytes.Equal(got["/a/two"][:4], []byte("xrun")) || !bytes.Equal(got["/top"][BlockSize:], []byte("\x00\x00\x00\x00tail")) {
			t.Fatalf("run %d: world content wrong: %q / %q", run, got["/a/two"][:4], got["/top"][BlockSize:])
		}
		if bytes.IndexByte(got["/top"], poisonByte) >= 0 || bytes.IndexByte(got["/a/two"], poisonByte) >= 0 {
			t.Fatalf("run %d: a recycled block leaked poison into the world", run)
		}
		for _, b := range extents(world, "/top") {
			if b != nil && !b.sealed.Load() && cap(b.data) != BlockSize {
				t.Fatalf("run %d: owned block has capacity %d, want %d", run, cap(b.data), BlockSize)
			}
		}
		Release(world)
		if len(list.free) != recycled {
			t.Fatalf("run %d: %d blocks recycled, want the %d the world owned", run, len(list.free), recycled)
		}
		for _, data := range list.free {
			if len(data) != BlockSize || bytes.Count(data, []byte{poisonByte}) != BlockSize {
				t.Fatalf("run %d: released block is not poisoned", run)
			}
		}
		if !sameSnapshot(snapshotAll(t, pristine), want) {
			t.Fatalf("run %d: releasing a clone changed its snapshot", run)
		}
	}
}
