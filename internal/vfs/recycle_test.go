package vfs

import (
	"bytes"
	"errors"
	"testing"
)

// releasedWorlds builds each recycling world shape over one pristine tree:
// a bare MemFS clone and a MountFS clone whose /lat tier is a LatencyFS.
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
	return map[string]FS{"memfs": mem.Clone(), "mountfs": mc}
}

// TestReleasedWorldFailsWithErrReleased pins that a released world never
// reads as an empty tree: every operation on it, and on the handles it
// had open, fails with ErrReleased.
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
				check("Chmod "+p, world.Chmod(p, 0o600))
				check("Truncate "+p, world.Truncate(p, 1))
				check("Remove "+p, world.Remove(p))
				check("RemoveAll "+p, world.RemoveAll(p))
				check("Rename "+p, world.Rename(p, p+".new"))
				check("Mknod "+p, world.Mknod(p+".dev", 0o600, 1))
			}
			_, err := world.ReadDir("/a")
			check("ReadDir", err)
			check("Mkdir", world.Mkdir("/a/new"))
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
				check("Truncate", f.Truncate(0))
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
// previous run's bytes.
func TestReleaseRecyclesOnlyOwnedBlocks(t *testing.T) {
	if !poisonReleased {
		poisonReleased = true
		defer func() { poisonReleased = false }()
	}
	pristine := NewMemFS()
	buildTree(t, pristine)
	// Full blocks the clones share but never write: sealed at BlockSize
	// capacity, yet never theirs to recycle.
	if err := WriteFile(pristine, "/full", bytes.Repeat([]byte("f"), 2*BlockSize)); err != nil {
		t.Fatal(err)
	}
	want := snapshotAll(t, pristine)
	var list BlockList
	for run := 0; run < 3; run++ {
		world := pristine.Clone()
		world.Attach(&list)
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
		got := snapshotAll(t, world)
		if !bytes.Equal(got["/a/two"][:4], []byte("xrun")) || !bytes.Equal(got["/top"][BlockSize:], []byte("\x00\x00\x00\x00tail")) {
			t.Fatalf("run %d: world content wrong: %q / %q", run, got["/a/two"][:4], got["/top"][BlockSize:])
		}
		if bytes.IndexByte(got["/top"], poisonByte) >= 0 || bytes.IndexByte(got["/a/two"], poisonByte) >= 0 {
			t.Fatalf("run %d: a recycled block leaked poison into the world", run)
		}
		for _, b := range world.nodes["/top"].blocks {
			if b != nil && !b.sealed.Load() && cap(b.data) != BlockSize {
				t.Fatalf("run %d: owned block has capacity %d, want %d", run, cap(b.data), BlockSize)
			}
		}
		world.Release()
		if len(list.free) != 2 {
			t.Fatalf("run %d: %d blocks recycled, want the 2 the world owned", run, len(list.free))
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
