package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// snapshotAll walks every file under "/" into a path→content map.
func snapshotAll(t *testing.T, fsys FS) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := Walk(fsys, "/", func(p string, info FileInfo) error {
		data, err := ReadFile(fsys, p)
		if err != nil {
			return err
		}
		out[p] = data
		return nil
	})
	if err != nil {
		t.Fatalf("walk: %v", err)
	}
	return out
}

func sameSnapshot(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for p, data := range a {
		if other, ok := b[p]; !ok || !bytes.Equal(data, other) {
			return false
		}
	}
	return true
}

func buildTree(t *testing.T, fsys FS) {
	t.Helper()
	if err := fsys.MkdirAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(fsys, "/a/b/one", []byte("one content")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(fsys, "/a/two", bytes.Repeat([]byte("x"), 4096)); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(fsys, "/top", []byte("top")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(fsys, "/dev0", nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemFSCloneEquality(t *testing.T) {
	m := NewMemFS()
	buildTree(t, m)
	c := m.Clone()
	if !sameSnapshot(snapshotAll(t, m), snapshotAll(t, c)) {
		t.Fatal("clone differs from original at clone time")
	}
	// Metadata comes along too.
	for _, p := range []string{"/a", "/a/b/one", "/dev0"} {
		oi, err := m.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		ci, err := c.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if oi != ci {
			t.Fatalf("stat %s: original %+v clone %+v", p, oi, ci)
		}
	}
}

// TestMemFSCloneIsolation mutates a clone every way the FS interface allows
// and asserts neither the pristine original nor a sibling clone observes any
// of it — and symmetrically, that post-clone writes to the original stay out
// of the clones.
func TestMemFSCloneIsolation(t *testing.T) {
	m := NewMemFS()
	buildTree(t, m)
	pristine := snapshotAll(t, m)

	mutations := []struct {
		name string
		mut  func(fs FS) error
	}{
		{"overwrite", func(fs FS) error { return WriteFile(fs, "/a/b/one", []byte("CLOBBERED")) }},
		{"write-at", func(fs FS) error {
			f, err := fs.Append("/a/two")
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.WriteAt([]byte("mid"), 100)
			return err
		}},
		{"append", func(fs FS) error {
			f, err := fs.Append("/top")
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.Write([]byte(" more"))
			return err
		}},
		{"truncate-shrink", func(fs FS) error { return fs.Truncate("/a/two", 10) }},
		{"truncate-grow", func(fs FS) error { return fs.Truncate("/top", 1000) }},
		{"remove", func(fs FS) error { return fs.Remove("/a/b/one") }},
		{"rename", func(fs FS) error { return fs.Rename("/top", "/moved") }},
		{"create-new", func(fs FS) error { return WriteFile(fs, "/fresh", []byte("new")) }},
		{"create-truncating", func(fs FS) error {
			f, err := fs.Create("/a/two")
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.Write([]byte("short"))
			return err
		}},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			victim := m.Clone()
			sibling := m.Clone()
			if err := tc.mut(victim); err != nil {
				t.Fatalf("mutation: %v", err)
			}
			if !sameSnapshot(snapshotAll(t, m), pristine) {
				t.Fatal("mutation in clone leaked into the original")
			}
			if !sameSnapshot(snapshotAll(t, sibling), pristine) {
				t.Fatal("mutation in clone leaked into a sibling clone")
			}
		})
	}

	// The reverse direction: the original mutates after cloning.
	clone := m.Clone()
	if err := WriteFile(m, "/a/b/one", []byte("original moved on")); err != nil {
		t.Fatal(err)
	}
	if err := m.Truncate("/a/two", 1); err != nil {
		t.Fatal(err)
	}
	if !sameSnapshot(snapshotAll(t, clone), pristine) {
		t.Fatal("mutation in original leaked into the clone")
	}
}

// TestMemFSCloneAppendWithinCapacity covers the subtle shared-backing case:
// a shrink leaves spare capacity in the shared slice, and a later grow on one
// side must not scribble into backing bytes the other side could reuse.
func TestMemFSCloneAppendWithinCapacity(t *testing.T) {
	m := NewMemFS()
	if err := WriteFile(m, "/f", bytes.Repeat([]byte("A"), 8192)); err != nil {
		t.Fatal(err)
	}
	if err := m.Truncate("/f", 16); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	// Grow the original back into what was spare capacity.
	f, err := m.Append("/f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bytes.Repeat([]byte("B"), 100)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := ReadFile(c, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if want := bytes.Repeat([]byte("A"), 16); !bytes.Equal(got, want) {
		t.Fatalf("clone sees %q, want %q", got, want)
	}
}

func TestMountFSClone(t *testing.T) {
	root := NewMemFS()
	m := NewMountFS(root)
	if err := m.Mount("/scratch", NewMemFS()); err != nil {
		t.Fatal(err)
	}
	if err := m.Mount("/out", NewMemFS()); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(m, "/scratch/data", []byte("scratch bytes")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(m, "/out/result", []byte("out bytes")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(m, "/rootfile", []byte("root bytes")); err != nil {
		t.Fatal(err)
	}
	pristine := snapshotAll(t, m)

	c, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if !sameSnapshot(snapshotAll(t, c), pristine) {
		t.Fatal("mount clone differs from original")
	}
	// Same table, distinct backends.
	om, cm := m.Mounts(), c.Mounts()
	if len(om) != len(cm) {
		t.Fatalf("mount table size changed: %d vs %d", len(om), len(cm))
	}
	for i := range om {
		if om[i].Path != cm[i].Path {
			t.Fatalf("mount %d path %q vs %q", i, om[i].Path, cm[i].Path)
		}
		if om[i].FS == cm[i].FS {
			t.Fatalf("mount %q shares its backend with the clone", om[i].Path)
		}
	}
	// Mutations on each side of every tier stay private.
	if err := WriteFile(c, "/scratch/data", []byte("CLONE")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(c, "/out/extra", []byte("EXTRA")); err != nil {
		t.Fatal(err)
	}
	if !sameSnapshot(snapshotAll(t, m), pristine) {
		t.Fatal("clone mutation leaked into the original mounted world")
	}
	// Cross-mount semantics survive the clone.
	if err := c.Rename("/scratch/data", "/out/data"); !errors.Is(err, ErrCrossMount) {
		t.Fatalf("cross-mount rename on clone: %v, want ErrCrossMount", err)
	}
}

type unclonableFS struct{ FS }

func TestMountFSCloneUnclonableBackend(t *testing.T) {
	m := NewMountFS(NewMemFS())
	if err := m.Mount("/osdir", unclonableFS{NewMemFS()}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Clone(); !errors.Is(err, ErrNotClonable) {
		t.Fatalf("clone with unclonable backend: %v, want ErrNotClonable", err)
	}
}

func TestMountFSCloneRejectsInterposedView(t *testing.T) {
	m := NewMountFS(NewMemFS())
	if err := m.Mount("/scratch", NewMemFS()); err != nil {
		t.Fatal(err)
	}
	// The wrapper, like core's injector, is no Cloner.
	armed, err := m.WithInterposed("/scratch", func(inner FS) FS { return unclonableFS{inner} })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := armed.Clone(); !errors.Is(err, ErrNotClonable) {
		t.Fatalf("clone of interposed view: %v, want ErrNotClonable", err)
	}
}

// TestMemFSCloneConcurrent hammers clones from multiple goroutines while the
// original keeps writing; run under -race this is the campaign engine's
// world-fan-out in miniature.
func TestMemFSCloneConcurrent(t *testing.T) {
	m := NewMemFS()
	buildTree(t, m)
	pristine := snapshotAll(t, m)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				c := m.Clone()
				p := fmt.Sprintf("/g%d-%d", g, i)
				if err := WriteFile(c, p, []byte(p)); err != nil {
					t.Error(err)
					return
				}
				if err := WriteFile(c, "/a/b/one", []byte(p)); err != nil {
					t.Error(err)
					return
				}
				got, err := ReadFile(c, "/a/b/one")
				if err != nil || string(got) != p {
					t.Errorf("clone readback %q: %q, %v", p, got, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if !sameSnapshot(snapshotAll(t, m), pristine) {
		t.Fatal("concurrent clone traffic mutated the original")
	}
}

// TestMemFSCloneSharesUntouchedBlocks asserts the O(changed data) COW
// contract structurally: after a clone, both trees reference the same
// extent objects; a write in the clone replaces only the touched block
// there, leaving every other extent — and all of the parent's — shared.
func TestMemFSCloneSharesUntouchedBlocks(t *testing.T) {
	m := NewMemFS()
	const nblocks = 16
	if err := WriteFile(m, "/big", bytes.Repeat([]byte{7}, nblocks*BlockSize)); err != nil {
		t.Fatal(err)
	}
	c := m.Clone()
	pn, cn := m.nodes["/big"], c.nodes["/big"]
	for i := 0; i < nblocks; i++ {
		if pn.blocks[i] != cn.blocks[i] {
			t.Fatalf("block %d not shared right after clone", i)
		}
		if !pn.blocks[i].sealed.Load() {
			t.Fatalf("block %d not sealed by clone", i)
		}
	}
	// One 4 KiB write into block 5 of the clone.
	f, err := c.Append("/big")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 4096), int64(5*BlockSize+100)); err != nil {
		t.Fatal(err)
	}
	f.Close()
	for i := 0; i < nblocks; i++ {
		shared := pn.blocks[i] == cn.blocks[i]
		if i == 5 && shared {
			t.Fatal("written block still shared: the write mutated a sealed extent")
		}
		if i != 5 && !shared {
			t.Fatalf("untouched block %d was copied: COW is not O(changed data)", i)
		}
	}
	if cn.blocks[5].sealed.Load() {
		t.Fatal("clone's private replacement block is sealed")
	}
	if !pn.blocks[5].sealed.Load() {
		t.Fatal("parent's block lost its seal")
	}
}

// TestMemFSCloneWhileWriting clones a tree while a writer goroutine keeps
// mutating the lower half of a file through an open handle, and proves
// neither tree ever observes the other's writes: each clone is frozen (two
// reads of it agree even as the parent keeps changing), clone-side writes
// to the upper half never reach the parent, and the parent's upper half
// stays pristine throughout. Run under -race this doubles as the data-race
// proof for the per-block seal protocol.
func TestMemFSCloneWhileWriting(t *testing.T) {
	const (
		blocks = 8
		half   = blocks / 2 * BlockSize
	)
	m := NewMemFS()
	if err := WriteFile(m, "/f", make([]byte, blocks*BlockSize)); err != nil {
		t.Fatal(err)
	}
	w, err := m.Append("/f")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 4096)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for j := range buf {
				buf[j] = byte(i + j)
			}
			off := int64((i * 8191) % (half - len(buf)))
			if _, err := w.WriteAt(buf, off); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()

	mark := bytes.Repeat([]byte{0xFF}, 4096)
	for i := 0; i < 40; i++ {
		c := m.Clone()
		a, err := ReadFile(c, "/f")
		if err != nil {
			t.Fatal(err)
		}
		b, err := ReadFile(c, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatal("clone content changed after the snapshot was taken")
		}
		// Divergent write into the clone's upper half; the parent writer
		// never touches that region, so any leak is detectable below.
		f, err := c.Append("/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(mark, int64(half+i*4096)); err != nil {
			t.Fatal(err)
		}
		f.Close()
		got, err := ReadFile(c, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[half+i*4096:half+(i+1)*4096], mark) {
			t.Fatal("clone write not visible in the clone")
		}
	}
	close(stop)
	<-done
	w.Close()

	got, err := ReadFile(m, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[half:], make([]byte, half)) {
		t.Fatal("a clone's write leaked into the parent")
	}
}

// TestOSFSCloneRefusesExplicitly: an OSFS world is never cloned. OSFS is
// not a Cloner, and a mount table whose root is an OSFS refuses to clone
// with the typed sentinel, not a failed type assertion.
func TestOSFSCloneRefusesExplicitly(t *testing.T) {
	var fs FS = NewOSFS(t.TempDir())
	if _, ok := fs.(Cloner); ok {
		t.Fatal("OSFS implements Cloner; a real directory tree has no copy-on-write clone")
	}
	cloned, err := NewMountFS(fs).Clone()
	if cloned != nil || !errors.Is(err, ErrNotClonable) {
		t.Fatalf("Clone of an OSFS-rooted mount table = %v, %v; want nil, ErrNotClonable", cloned, err)
	}
}

// TestMountFSCloneErrorPath: cloning a world with a non-clonable mount
// fails with ErrNotClonable wrapped in a PathError naming the offending
// mount point — the error path the snapshot engine's fresh-world fallback
// keys on.
func TestMountFSCloneErrorPath(t *testing.T) {
	m := NewMountFS(NewMemFS())
	if err := m.Mount("/ok", NewMemFS()); err != nil {
		t.Fatal(err)
	}
	if err := m.Mount("/host", NewOSFS(t.TempDir())); err != nil {
		t.Fatal(err)
	}
	_, err := m.Clone()
	if !errors.Is(err, ErrNotClonable) {
		t.Fatalf("Clone err = %v; want ErrNotClonable", err)
	}
	var pe *PathError
	if !errors.As(err, &pe) || pe.Path != "/host" {
		t.Fatalf("Clone err = %v; want PathError naming /host", err)
	}
}
