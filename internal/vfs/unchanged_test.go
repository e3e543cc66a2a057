package vfs

import (
	"bytes"
	"testing"
)

// unchangedWorld returns a clone of a MemFS holding /d/f and /d/g, after
// checking that the clone answers true for both.
func unchangedWorld(t *testing.T) *MemFS {
	t.Helper()
	src := NewMemFS()
	if err := src.MkdirAll("/d"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/d/f", "/d/g"} {
		if err := WriteFile(src, p, bytes.Repeat([]byte(p), 100)); err != nil {
			t.Fatal(err)
		}
	}
	fs := src.Clone()
	if !Unchanged(fs, "/d/f") || !Unchanged(fs, "/d/g") {
		t.Fatal("an untouched clone file answered false")
	}
	return fs
}

// onHandle opens name with open and applies op to the handle.
func onHandle(open func(string) (File, error), name string, op func(File) error) error {
	f, err := open(name)
	if err != nil {
		return err
	}
	if err := op(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// TestMemFSUnchanged pins what turns a cloned file's Unchanged answer
// false: every mutation of its content, size, mode or path, including
// writes that leave the bytes as they were, and the Append-handle write
// through which latent corruption reaches at-rest bytes. Reads, stats and
// opening a handle without writing keep it true; mutating /d/f leaves /d/g
// true unless the mutation moved their parent.
func TestMemFSUnchanged(t *testing.T) {
	same := bytes.Repeat([]byte("/d/f"), 100)
	cases := []struct {
		name    string
		mutate  func(fs *MemFS) error
		sibling bool // /d/g still answers true
	}{
		{"Write", func(fs *MemFS) error {
			return onHandle(fs.Append, "/d/f", func(f File) error { _, err := f.Write([]byte("x")); return err })
		}, true},
		{"WriteAtSameBytes", func(fs *MemFS) error {
			return onHandle(fs.Append, "/d/f", func(f File) error { _, err := f.WriteAt(same[:4], 0); return err })
		}, true},
		{"WriteAtNoBytes", func(fs *MemFS) error {
			return onHandle(fs.Append, "/d/f", func(f File) error { _, err := f.WriteAt(nil, 1<<20); return err })
		}, true},
		{"AppendHandleLatentFlip", func(fs *MemFS) error {
			return onHandle(fs.Append, "/d/f", func(f File) error {
				buf := make([]byte, 8)
				if _, err := f.ReadAt(buf, 16); err != nil {
					return err
				}
				buf[3] ^= 0x10
				_, err := f.WriteAt(buf, 16)
				return err
			})
		}, true},
		{"Truncate", func(fs *MemFS) error { return fs.Truncate("/d/f", 1) }, true},
		{"TruncateSameSize", func(fs *MemFS) error { return fs.Truncate("/d/f", int64(len(same))) }, true},
		{"CreateOver", func(fs *MemFS) error {
			return onHandle(fs.Create, "/d/f", func(File) error { return nil })
		}, true},
		{"RenameAway", func(fs *MemFS) error { return fs.Rename("/d/f", "/d/h") }, true},
		{"RenameAwayAndBack", func(fs *MemFS) error {
			if err := fs.Rename("/d/f", "/d/h"); err != nil {
				return err
			}
			return fs.Rename("/d/h", "/d/f")
		}, true},
		{"RenameOver", func(fs *MemFS) error { return fs.Rename("/d/g", "/d/f") }, false},
		{"RenameParentAndBack", func(fs *MemFS) error {
			if err := fs.Rename("/d", "/e"); err != nil {
				return err
			}
			return fs.Rename("/e", "/d")
		}, false},
		{"RemoveAndRecreate", func(fs *MemFS) error {
			if err := fs.Remove("/d/f"); err != nil {
				return err
			}
			return WriteFile(fs, "/d/f", same)
		}, true},
		{"Release", func(fs *MemFS) error { fs.Release(); return nil }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := unchangedWorld(t)
			g := Origin(fs, "/d/g")
			if err := tc.mutate(fs); err != nil {
				t.Fatal(err)
			}
			if Unchanged(fs, "/d/f") {
				t.Error("/d/f still answers true")
			}
			if Origin(fs, "/d/f") != nil {
				t.Error("/d/f still has a token")
			}
			if got := Origin(fs, "/d/g"); (got == g) != tc.sibling || got != nil && got != g {
				t.Errorf("/d/g has token %p, want %p while unchanged (%v), nil otherwise", got, g, tc.sibling)
			}
			if Unchanged(fs, "/d/h") || Unchanged(fs, "/e/f") {
				t.Error("a moved file answers true at its new path")
			}
			if got := Unchanged(fs, "/d/g"); got != tc.sibling {
				t.Errorf("/d/g answers %v, want %v", got, tc.sibling)
			}
		})
	}

	t.Run("ReadsKeepTrue", func(t *testing.T) {
		fs := unchangedWorld(t)
		if _, err := ReadFile(fs, "/d/f"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Stat("/d/f"); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.ReadDir("/d"); err != nil {
			t.Fatal(err)
		}
		if err := onHandle(fs.Append, "/d/f", func(File) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if err := WriteFile(fs, "/d/new", nil); err != nil {
			t.Fatal(err)
		}
		if !Unchanged(fs, "/d/f") {
			t.Fatal("reading /d/f turned its answer false")
		}
		if Unchanged(fs, "/d/new") || Unchanged(fs, "/d") {
			t.Fatal("a file created after the clone or a directory answered true")
		}
	})
	t.Run("NotAClone", func(t *testing.T) {
		fs := NewMemFS()
		if err := WriteFile(fs, "/f", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if Unchanged(fs, "/f") {
			t.Fatal("an untouched file of a MemFS that is not a clone answered true")
		}
	})
	t.Run("CloneOfClone", func(t *testing.T) {
		fs := unchangedWorld(t)
		if err := WriteFile(fs, "/d/f", []byte("new")); err != nil {
			t.Fatal(err)
		}
		again := fs.Clone()
		if !Unchanged(again, "/d/f") || !Unchanged(again, "/d/g") {
			t.Fatal("a clone answers for the world it was cloned from, not an older one")
		}
	})
}

// TestOriginTokens: the tokens of two clones of one world are equal, file
// for file, and so are those of a clone of a clone; two worlds built the
// same way, byte for byte, have distinct tokens, and so do two files of
// one world.
func TestOriginTokens(t *testing.T) {
	build := func() *MemFS {
		fs := NewMemFS()
		for _, p := range []string{"/f", "/g"} {
			if err := WriteFile(fs, p, []byte("same bytes")); err != nil {
				t.Fatal(err)
			}
		}
		return fs
	}
	src, other := build(), build()
	a, b := src.Clone(), src.Clone()
	f := Origin(a, "/f")
	if f == nil || Origin(b, "/f") != f || Origin(a.Clone(), "/f") != f || Origin(b, "/g") != Origin(a, "/g") {
		t.Fatal("clones of one world do not share each file's token")
	}
	if Origin(other.Clone(), "/f") == f {
		t.Fatal("two worlds built alike share a token")
	}
	if Origin(a, "/g") == f {
		t.Fatal("two files of one world share a token")
	}
	if Origin(src, "/f") != nil {
		t.Fatal("the clone source answered a token")
	}
}

// TestMountFSUnchanged: a cloned mount table answers per mount, through
// the backend owning the path, and forwards its token; a table remounted
// since the clone, an interposed view and object-store or host backends
// answer false.
func TestMountFSUnchanged(t *testing.T) {
	m := NewMountFS(NewMemFS())
	if err := m.Mount("/fast", NewMemFS()); err != nil {
		t.Fatal(err)
	}
	if err := m.Mount("/obj", NewObjectFS()); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/root.txt", "/fast/a", "/fast/b", "/obj/o"} {
		if err := WriteFile(m, p, []byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if Unchanged(m, "/fast/a") {
		t.Fatal("a table not made by Clone answered true")
	}
	c, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	for p, want := range map[string]bool{"/root.txt": true, "/fast/a": true, "/fast/b": true, "/obj/o": false, "/fast": false} {
		if got := Unchanged(c, p); got != want {
			t.Errorf("clone: Unchanged(%s) = %v, want %v", p, got, want)
		}
	}
	if err := WriteFile(c, "/fast/a", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if Unchanged(c, "/fast/a") || !Unchanged(c, "/fast/b") || !Unchanged(c, "/root.txt") {
		t.Fatal("a write on one mount did not answer per file")
	}
	view, err := c.WithInterposed("/fast", func(fs FS) FS { return fs })
	if err != nil {
		t.Fatal(err)
	}
	if Unchanged(view, "/fast/b") || Origin(view, "/fast/b") != nil {
		t.Fatal("an interposed view answered true")
	}
	if Origin(c, "/fast/b") == nil || Origin(c, "/fast/b") != Origin(c.Mounts()[1].FS, "/fast/b") {
		t.Fatal("a cloned table did not forward the owning backend's token")
	}
	if err := c.Mount("/root.txt.d", NewMemFS().Clone()); err != nil {
		t.Fatal(err)
	}
	if Unchanged(c, "/root.txt") || Unchanged(c, "/fast/b") {
		t.Fatal("a table remounted since the clone answered true")
	}
}

// TestUnchangedFalseOnOtherBackends: ObjectFS, OSFS and LatencyFS cannot
// prove anything, cloned or not, and answer no token.
func TestUnchangedFalseOnOtherBackends(t *testing.T) {
	obj := NewObjectFS()
	lat := NewLatencyFS(NewMemFS(), ParallelFSModel)
	for _, fs := range []FS{obj, lat, NewOSFS(t.TempDir())} {
		if err := WriteFile(fs, "/f", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if Unchanged(fs, "/f") || Origin(fs, "/f") != nil {
			t.Fatalf("%T answered true", fs)
		}
	}
	latClone, err := lat.CloneFS()
	if err != nil {
		t.Fatal(err)
	}
	if Unchanged(obj.Clone(), "/f") || Unchanged(latClone, "/f") || Origin(obj.Clone(), "/f") != nil || Origin(latClone, "/f") != nil {
		t.Fatal("a cloned ObjectFS or LatencyFS answered true")
	}
}
