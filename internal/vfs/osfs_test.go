package vfs

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func newOSFS(t *testing.T) *OSFS {
	t.Helper()
	return NewOSFS(t.TempDir())
}

func TestOSFSWriteReadRoundTrip(t *testing.T) {
	fs := newOSFS(t)
	if err := fs.MkdirAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(fs, "/a/b/f.bin", []byte("real storage")); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(fs, "/a/b/f.bin")
	if err != nil || string(got) != "real storage" {
		t.Fatalf("%v %q", err, got)
	}
}

func TestOSFSPositionalIO(t *testing.T) {
	fs := newOSFS(t)
	f, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt([]byte("tail"), 100); err != nil {
		t.Fatal(err)
	}
	size, _ := f.Size()
	if size != 104 {
		t.Fatalf("size = %d", size)
	}
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, 100); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(buf) != "tail" {
		t.Fatalf("buf = %q", buf)
	}
}

func TestOSFSAppend(t *testing.T) {
	fs := newOSFS(t)
	WriteFile(fs, "/log", []byte("one\n"))
	f, err := fs.Append("/log")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("two\n"))
	f.Close()
	got, _ := ReadFile(fs, "/log")
	if string(got) != "one\ntwo\n" {
		t.Fatalf("got %q", got)
	}
}

func TestOSFSReadOnlyHandle(t *testing.T) {
	fs := newOSFS(t)
	WriteFile(fs, "/f", []byte("x"))
	f, err := fs.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte("y")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("err = %v", err)
	}
}

func TestOSFSConfinement(t *testing.T) {
	fs := newOSFS(t)
	// Attempts to escape the root are squashed to the root.
	if err := WriteFile(fs, "/../../escape", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if !Exists(fs, "/escape") {
		t.Fatal("escape path was not confined to the root")
	}
}

func TestOSFSDirectoryOps(t *testing.T) {
	fs := newOSFS(t)
	fs.MkdirAll("/d")
	WriteFile(fs, "/d/b", []byte("2"))
	WriteFile(fs, "/d/a", []byte("1"))
	infos, err := fs.ReadDir("/d")
	if err != nil || len(infos) != 2 || infos[0].Name != "a" {
		t.Fatalf("%v %+v", err, infos)
	}
	if err := fs.Rename("/d/a", "/d/c"); err != nil {
		t.Fatal(err)
	}
	if Exists(fs, "/d/a") || !Exists(fs, "/d/c") {
		t.Fatal("rename failed")
	}
	if err := fs.Remove("/d"); !errors.Is(err, ErrDirNotEmpty) {
		t.Fatalf("remove non-empty dir err = %v", err)
	}
	for _, p := range []string{"/d/c", "/d/b", "/d"} {
		if err := fs.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	if Exists(fs, "/d") {
		t.Fatal("remove failed")
	}
}

func TestOSFSTruncate(t *testing.T) {
	fs := newOSFS(t)
	WriteFile(fs, "/t", bytes.Repeat([]byte{1}, 10))
	if err := fs.Truncate("/t", 4); err != nil {
		t.Fatal(err)
	}
	info, _ := fs.Stat("/t")
	if info.Size != 4 {
		t.Fatalf("size = %d", info.Size)
	}
}

// TestOSFSBehavesLikeMemFS cross-validates the two backends with the same
// operation sequence — the substitution argument for using MemFS in
// campaigns requires they agree.
func TestOSFSBehavesLikeMemFS(t *testing.T) {
	run := func(fs FS) string {
		fs.MkdirAll("/x/y")
		WriteFile(fs, "/x/y/f", []byte("hello"))
		f, _ := fs.Append("/x/y/f")
		f.Write([]byte(" world"))
		f.WriteAt([]byte("H"), 0)
		f.Close()
		fs.Rename("/x/y/f", "/x/g")
		got, _ := ReadFile(fs, "/x/g")
		info, _ := fs.Stat("/x/g")
		return string(got) + "|" + infoString(info)
	}
	a := run(NewMemFS())
	b := run(newOSFS(t))
	if a != b {
		t.Fatalf("backends disagree:\nmem: %s\nos:  %s", a, b)
	}
}

func infoString(i FileInfo) string {
	return i.Name + string(rune('0'+i.Size%10))
}
