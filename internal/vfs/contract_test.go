package vfs

// The FS behavioral contract suite. Every backend that can sit behind the
// mount table — in memory, object store or host, latency-modeled or not —
// must agree on namespace semantics, handle lifecycle, error sentinels, and
// concurrent access; these tests are the executable form of that contract.
// They started life as MemFS unit tests and were extracted when the other
// backends joined MemFS: a new backend passes the suite or it does not go
// behind MountFS. The CI race gate runs exactly this suite under -race.

import (
	"bytes"
	"errors"
	"io"
	"sync"
	"testing"
)

// contractFS names one backend under contract; build constructs a fresh
// world per subtest.
type contractFS struct {
	name  string
	build func(t *testing.T) FS
}

// contractBackends enumerates every FS implementation the suite runs
// against. MountFS carries an extra empty mount so routing stays exercised;
// OSFS runs over a per-test host directory; LatencyFS wraps MemFS with the
// parallel-file-system cost model, proving the wrapper is semantically
// transparent.
func contractBackends() []contractFS {
	return []contractFS{
		{"MemFS", func(t *testing.T) FS { return NewMemFS() }},
		{"MountFS", func(t *testing.T) FS {
			m := NewMountFS(NewMemFS())
			if err := m.Mount("/contract-extra", NewMemFS()); err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"OSFS", func(t *testing.T) FS { return NewOSFS(t.TempDir()) }},
		{"ObjectFS", func(t *testing.T) FS { return NewObjectFS() }},
		{"LatencyFS", func(t *testing.T) FS { return NewLatencyFS(NewMemFS(), ParallelFSModel) }},
	}
}

func TestFSContract(t *testing.T) {
	tests := []struct {
		name string
		fn   func(t *testing.T, fs FS)
	}{
		{"CreateWriteReadBack", testCreateWriteReadBack},
		{"CreateTruncatesExisting", testCreateTruncatesExisting},
		{"OpenMissingFile", testOpenMissingFile},
		{"CreateInMissingDir", testCreateInMissingDir},
		{"MkdirAndNesting", testMkdirAndNesting},
		{"WriteAtSparseGrowth", testWriteAtSparseGrowth},
		{"WriteAtDoesNotMoveSequentialOffset", testWriteAtDoesNotMoveSequentialOffset},
		{"SeekSemantics", testSeekSemantics},
		{"ReadOnlyHandleRejectsWrites", testReadOnlyHandleRejectsWrites},
		{"ClosedHandleFails", testClosedHandleFails},
		{"AppendMode", testAppendMode},
		{"RemoveSemantics", testRemoveSemantics},
		{"RenameFileAndDir", testRenameFileAndDir},
		{"ReadDirSortedAndShallow", testReadDirSortedAndShallow},
		{"TruncatePath", testTruncatePath},
		{"WalkVisitsAllFiles", testWalkVisitsAllFiles},
		{"ConcurrentWriters", testConcurrentWriters},
		{"ConcurrentHandlesSameFile", testConcurrentHandlesSameFile},
		{"ReadAtPastEOF", testReadAtPastEOF},
		{"UnchangedExactOrFalse", testUnchangedExactOrFalse},
		{"WriteDoesNotRetainBuffer", testWriteDoesNotRetainBuffer},
	}
	for _, backend := range contractBackends() {
		t.Run(backend.name, func(t *testing.T) {
			for _, tc := range tests {
				t.Run(tc.name, func(t *testing.T) {
					tc.fn(t, backend.build(t))
				})
			}
		})
	}
}

func testCreateWriteReadBack(t *testing.T, fs FS) {
	if err := WriteFile(fs, "/hello.txt", []byte("storage faults")); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(fs, "/hello.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "storage faults" {
		t.Fatalf("read %q", got)
	}
}

func testCreateTruncatesExisting(t *testing.T, fs FS) {
	if err := WriteFile(fs, "/f", []byte("long old content")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(fs, "/f", []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, _ := ReadFile(fs, "/f")
	if string(got) != "new" {
		t.Fatalf("got %q", got)
	}
}

func testOpenMissingFile(t *testing.T, fs FS) {
	_, err := fs.Open("/nope")
	if !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v, want ErrNotExist", err)
	}
}

func testCreateInMissingDir(t *testing.T, fs FS) {
	_, err := fs.Create("/no/such/dir/file")
	if !errors.Is(err, ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func testMkdirAndNesting(t *testing.T, fs FS) {
	if err := fs.MkdirAll("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/a/b"); err != nil {
		t.Fatalf("MkdirAll of an existing tree err = %v", err)
	}
	info, err := fs.Stat("/a/b/c")
	if err != nil || !info.IsDir {
		t.Fatalf("stat: %v %+v", err, info)
	}
	// MkdirAll through an existing file must fail.
	if err := WriteFile(fs, "/a/file", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := fs.MkdirAll("/a/file/sub"); !errors.Is(err, ErrNotDir) {
		t.Fatalf("MkdirAll through file err = %v", err)
	}
}

func testWriteAtSparseGrowth(t *testing.T, fs FS) {
	f, err := fs.Create("/sparse")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("tail"), 100); err != nil {
		t.Fatal(err)
	}
	size, _ := f.Size()
	if size != 104 {
		t.Fatalf("size = %d, want 104", size)
	}
	buf := make([]byte, 104)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:100], make([]byte, 100)) {
		t.Fatal("hole was not zero-filled")
	}
	if string(buf[100:]) != "tail" {
		t.Fatalf("tail = %q", buf[100:])
	}
}

func testWriteAtDoesNotMoveSequentialOffset(t *testing.T, fs FS) {
	f, _ := fs.Create("/f")
	if _, err := f.Write([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("ZZZ"), 10); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("def")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, _ := ReadFile(fs, "/f")
	// sequential writes produce abcdef at 0..5; ZZZ at 10..12
	if !bytes.Equal(got[:6], []byte("abcdef")) || string(got[10:13]) != "ZZZ" {
		t.Fatalf("content = %q (want abcdef....ZZZ)", got)
	}
}

func testSeekSemantics(t *testing.T, fs FS) {
	f, _ := fs.Create("/f")
	f.Write([]byte("0123456789"))
	if pos, err := f.Seek(2, io.SeekStart); err != nil || pos != 2 {
		t.Fatalf("seek start: %v %d", err, pos)
	}
	b := make([]byte, 3)
	f.Read(b)
	if string(b) != "234" {
		t.Fatalf("read after seek = %q", b)
	}
	if pos, _ := f.Seek(-1, io.SeekEnd); pos != 9 {
		t.Fatalf("seek end pos = %d", pos)
	}
	if pos, _ := f.Seek(1, io.SeekCurrent); pos != 10 {
		t.Fatalf("seek current pos = %d", pos)
	}
	if _, err := f.Seek(-100, io.SeekStart); err == nil {
		t.Fatal("negative seek should fail")
	}
	if _, err := f.Seek(0, 42); err == nil {
		t.Fatal("bad whence should fail")
	}
}

func testReadOnlyHandleRejectsWrites(t *testing.T, fs FS) {
	WriteFile(fs, "/f", []byte("data"))
	f, _ := fs.Open("/f")
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write err = %v", err)
	}
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("writeat err = %v", err)
	}
}

func testClosedHandleFails(t *testing.T, fs FS) {
	f, _ := fs.Create("/f")
	f.Close()
	if _, err := f.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write err = %v", err)
	}
	if _, err := f.Read(make([]byte, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("read err = %v", err)
	}
	if err := f.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close err = %v", err)
	}
}

func testAppendMode(t *testing.T, fs FS) {
	WriteFile(fs, "/log", []byte("line1\n"))
	f, err := fs.Append("/log")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("line2\n"))
	f.Close()
	got, _ := ReadFile(fs, "/log")
	if string(got) != "line1\nline2\n" {
		t.Fatalf("got %q", got)
	}
	// Append creates missing files.
	f2, err := fs.Append("/fresh")
	if err != nil {
		t.Fatal(err)
	}
	f2.Write([]byte("x"))
	f2.Close()
	if !Exists(fs, "/fresh") {
		t.Fatal("append did not create file")
	}
}

func testRemoveSemantics(t *testing.T, fs FS) {
	fs.MkdirAll("/d/sub")
	WriteFile(fs, "/d/sub/f", []byte("x"))
	if err := fs.Remove("/d"); !errors.Is(err, ErrDirNotEmpty) {
		t.Fatalf("remove non-empty err = %v", err)
	}
	if err := fs.Remove("/d/sub/f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/d/sub"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("/missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("remove missing err = %v", err)
	}
}

func testRenameFileAndDir(t *testing.T, fs FS) {
	WriteFile(fs, "/old", []byte("content"))
	if err := fs.Rename("/old", "/new"); err != nil {
		t.Fatal(err)
	}
	if Exists(fs, "/old") {
		t.Fatal("old name still exists")
	}
	got, _ := ReadFile(fs, "/new")
	if string(got) != "content" {
		t.Fatalf("content = %q", got)
	}

	fs.MkdirAll("/dir/sub")
	WriteFile(fs, "/dir/sub/f", []byte("deep"))
	if err := fs.Rename("/dir", "/moved"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(fs, "/moved/sub/f")
	if err != nil || string(got) != "deep" {
		t.Fatalf("deep rename: %v %q", err, got)
	}
	if err := fs.Rename("/missing", "/x"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("rename missing err = %v", err)
	}

	// A rename onto the same path changes nothing, yet still reports a
	// missing source.
	if err := fs.Rename("/new", "/new"); err != nil {
		t.Fatalf("same-path rename: %v", err)
	}
	if got, err := ReadFile(fs, "/new"); err != nil || string(got) != "content" {
		t.Fatalf("same-path rename lost the file: %v %q", err, got)
	}
	if err := fs.Rename("/missing", "/missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("same-path rename of a missing file err = %v", err)
	}

	// A directory cannot move into its own subtree; the tree stays put.
	if err := fs.Rename("/moved", "/moved/sub/inner"); err == nil {
		t.Fatal("renaming a directory into its own subtree succeeded")
	}
	if got, err := ReadFile(fs, "/moved/sub/f"); err != nil || string(got) != "deep" {
		t.Fatalf("refused subtree rename changed the tree: %v %q", err, got)
	}
	if info, err := fs.Stat("/moved"); err != nil || !info.IsDir {
		t.Fatalf("refused subtree rename lost the directory: %+v, %v", info, err)
	}
	infos, err := fs.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	listed := false
	for _, info := range infos {
		listed = listed || info.Name == "moved"
	}
	if !listed {
		t.Fatalf("refused subtree rename orphaned /moved: root lists %+v", infos)
	}
}

func testReadDirSortedAndShallow(t *testing.T, fs FS) {
	fs.MkdirAll("/p/deep")
	WriteFile(fs, "/p/b", []byte("1"))
	WriteFile(fs, "/p/a", []byte("22"))
	WriteFile(fs, "/p/deep/hidden", []byte("x"))
	infos, err := fs.ReadDir("/p")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("got %d entries", len(infos))
	}
	if infos[0].Name != "a" || infos[1].Name != "b" || infos[2].Name != "deep" {
		t.Fatalf("order: %+v", infos)
	}
	if infos[1].Size != 1 || infos[0].Size != 2 {
		t.Fatalf("sizes: %+v", infos)
	}
	if !infos[2].IsDir {
		t.Fatal("deep should be a dir")
	}
}

func testTruncatePath(t *testing.T, fs FS) {
	WriteFile(fs, "/f", []byte("0123456789"))
	if err := fs.Truncate("/f", 4); err != nil {
		t.Fatal(err)
	}
	got, _ := ReadFile(fs, "/f")
	if string(got) != "0123" {
		t.Fatalf("got %q", got)
	}
	if err := fs.Truncate("/f", 8); err != nil {
		t.Fatal(err)
	}
	got, _ = ReadFile(fs, "/f")
	if !bytes.Equal(got, []byte{'0', '1', '2', '3', 0, 0, 0, 0}) {
		t.Fatalf("grow: %q", got)
	}
	if err := fs.Truncate("/f", -1); err == nil {
		t.Fatal("negative truncate should fail")
	}
}

func testWalkVisitsAllFiles(t *testing.T, fs FS) {
	fs.MkdirAll("/a/b")
	WriteFile(fs, "/a/1", []byte("x"))
	WriteFile(fs, "/a/b/2", []byte("y"))
	WriteFile(fs, "/top", []byte("z"))
	var seen []string
	err := Walk(fs, "/", func(p string, info FileInfo) error {
		seen = append(seen, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("walk saw %v", seen)
	}
}

func testConcurrentWriters(t *testing.T, fs FS) {
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			name := "/file" + string(rune('a'+id))
			for i := 0; i < 100; i++ {
				if err := WriteFile(fs, name, bytes.Repeat([]byte{byte(id)}, 128)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		got, err := ReadFile(fs, "/file"+string(rune('a'+w)))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 128 || got[0] != byte(w) {
			t.Fatalf("worker %d content corrupted", w)
		}
	}
}

func testConcurrentHandlesSameFile(t *testing.T, fs FS) {
	WriteFile(fs, "/shared", make([]byte, 4096))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			f, err := fs.Append("/shared")
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			for i := 0; i < 50; i++ {
				chunk := bytes.Repeat([]byte{byte(id + 1)}, 512)
				if _, err := f.WriteAt(chunk, int64(id)*512); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got, _ := ReadFile(fs, "/shared")
	for w := 0; w < 8; w++ {
		seg := got[w*512 : (w+1)*512]
		for _, b := range seg {
			if b != byte(w+1) {
				t.Fatalf("segment %d corrupted: %d", w, b)
			}
		}
	}
}

func testReadAtPastEOF(t *testing.T, fs FS) {
	WriteFile(fs, "/f", []byte("abc"))
	f, _ := fs.Open("/f")
	buf := make([]byte, 10)
	n, err := f.ReadAt(buf, 1)
	if n != 2 || err != io.EOF {
		t.Fatalf("short read n=%d err=%v", n, err)
	}
	if _, err := f.ReadAt(buf, 99); err != io.EOF {
		t.Fatalf("past-eof err = %v", err)
	}
	if _, err := f.ReadAt(buf, -1); err == nil {
		t.Fatal("negative offset should fail")
	}
}

// testUnchangedExactOrFalse: Unchanged either answers exactly — true for a
// file of a clone that nothing touched since, false once it is written,
// for a directory and for a missing name — or answers false throughout.
// Only a world made by Clone can answer true; MemFS and MountFS (over
// MemFS) must answer exactly.
func testUnchangedExactOrFalse(t *testing.T, fs FS) {
	if err := fs.MkdirAll("/u"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/u/f", "/u/g"} {
		if err := WriteFile(fs, p, []byte("content of "+p)); err != nil {
			t.Fatal(err)
		}
	}
	if Unchanged(fs, "/u/g") {
		t.Fatal("a world not made by Clone answered true")
	}
	var wantExact bool
	switch fs.(type) {
	case *MemFS, *MountFS:
		wantExact = true
	}
	c, ok := fs.(Cloner)
	if !ok {
		return
	}
	world, err := c.CloneFS()
	if errors.Is(err, ErrNotClonable) && !wantExact {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	exact := Unchanged(world, "/u/g")
	if exact != wantExact {
		t.Fatalf("untouched clone file: Unchanged = %v, want %v", exact, wantExact)
	}
	if err := WriteFile(world, "/u/f", []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if Unchanged(world, "/u/f") || Unchanged(world, "/u") || Unchanged(world, "/u/missing") {
		t.Fatal("a rewritten file, a directory or a missing name answered true")
	}
	if Unchanged(world, "/u/g") != exact {
		t.Fatal("writing one file changed another file's answer")
	}
	if got, _ := ReadFile(world, "/u/g"); exact && string(got) != "content of /u/g" {
		t.Fatalf("an unchanged file reads %q", got)
	}
	if Unchanged(fs, "/u/g") {
		t.Fatal("the clone source answered true")
	}
}

// testWriteDoesNotRetainBuffer: a backend copies what Write and WriteAt
// hand it, so a caller may overwrite its buffer once the call returns
// (fits.WriteEncoded's blocks are a kept encoding's own bytes).
func testWriteDoesNotRetainBuffer(t *testing.T, fs FS) {
	f, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	buf := []byte("first block|")
	if _, err := f.Write(buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "XXXXXXXXXXXX")
	at := []byte("positional")
	if _, err := f.WriteAt(at, 20); err != nil {
		t.Fatal(err)
	}
	copy(at, "YYYYYYYYYY")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(fs, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if want := "first block|\x00\x00\x00\x00\x00\x00\x00\x00positional"; string(got) != want {
		t.Fatalf("read back %q, want %q", got, want)
	}
}
