package vfs

import (
	"bytes"
	"runtime"
	"testing"
)

// appendPattern is the content the append tests write: position-dependent,
// so a misplaced or stale byte never reads back as the right one.
func appendPattern(size int) []byte {
	p := make([]byte, size)
	for i := range p {
		p[i] = byte(i*7 + i>>8)
	}
	return p
}

// appendAll writes data to name through one handle in chunk-sized writes.
func appendAll(fsys FS, name string, data []byte, chunk int) error {
	f, err := fsys.Create(name)
	if err != nil {
		return err
	}
	defer f.Close()
	for off := 0; off < len(data); off += chunk {
		if _, err := f.Write(data[off:min(off+chunk, len(data))]); err != nil {
			return err
		}
	}
	return nil
}

// checkLinearAppend writes a 1 MiB file sequentially in chunk-sized writes
// and fails if the writes allocated 3× the file size or more: geometric
// growth keeps the total near 2×, while reallocating the tail on every
// write costs a multiple of the file size that grows with the file.
func checkLinearAppend(t *testing.T, fsys FS, chunk int) {
	const size = 1 << 20
	data := appendPattern(size)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err := appendAll(fsys, "/f", data, chunk)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / size
	t.Logf("%d-byte appends allocated %.2f× the file size", chunk, ratio)
	if ratio >= 3 {
		t.Errorf("%d-byte appends allocated %.2f× the file size, want < 3×", chunk, ratio)
	}
	if got, err := ReadFile(fsys, "/f"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("content differs after appends (err %v)", err)
	}
}

func TestMemFSSequentialAppendIsLinear(t *testing.T) {
	checkLinearAppend(t, NewMemFS(), 2880)
}

func TestObjectFSSequentialAppendIsLinear(t *testing.T) {
	checkLinearAppend(t, NewObjectFS(), 4096)
}

// extents returns the block table holding name's content, in a MemFS or
// in the MemFS an ObjectFS keeps its objects in.
func extents(fsys FS, name string) []*memBlock {
	switch fs := fsys.(type) {
	case *MemFS:
		n := fs.nodes[name]
		n.mu.RLock()
		defer n.mu.RUnlock()
		return append([]*memBlock(nil), n.blocks...)
	case *ObjectFS:
		return extents(fs.fs, name)
	}
	panic("extents: unsupported backend")
}

// TestCloneRetainsNoSpareCapacity checks that a snapshot holds exactly its
// bytes: after sequential appends, and while a writer keeps appending
// through an open handle, every extent of every clone is sealed with
// cap == len, and the clone reads back a prefix of the appended stream.
func TestCloneRetainsNoSpareCapacity(t *testing.T) {
	const size = 300_000 // not a multiple of BlockSize: the tail is partial
	data := appendPattern(size)
	for _, tc := range []struct {
		name  string
		fs    func() FS
		clone func(FS) FS
		chunk int
	}{
		{"MemFS", func() FS { return NewMemFS() }, func(fs FS) FS { return fs.(*MemFS).Clone() }, 2880},
		{"ObjectFS", func() FS { return NewObjectFS() }, func(fs FS) FS { return fs.(*ObjectFS).Clone() }, 4096},
	} {
		check := func(t *testing.T, c FS, whole bool) {
			t.Helper()
			for i, b := range extents(c, "/f") {
				if b == nil {
					continue
				}
				if !b.sealed.Load() || cap(b.data) != len(b.data) {
					t.Fatalf("extent %d: sealed %v, len %d, cap %d", i, b.sealed.Load(), len(b.data), cap(b.data))
				}
			}
			got, err := ReadFile(c, "/f")
			if err != nil || !bytes.Equal(got, data[:len(got)]) || whole && len(got) != size {
				t.Fatalf("clone holds %d bytes that are not the appended prefix (err %v)", len(got), err)
			}
		}
		t.Run(tc.name, func(t *testing.T) {
			fs := tc.fs()
			if err := appendAll(fs, "/f", data, tc.chunk); err != nil {
				t.Fatal(err)
			}
			check(t, tc.clone(fs), true)
			check(t, tc.clone(fs), true)
		})
		t.Run(tc.name+"WhileAppending", func(t *testing.T) {
			fs := tc.fs()
			done := make(chan error)
			go func() { done <- appendAll(fs, "/f", data, tc.chunk) }()
			for clones := 0; ; clones++ {
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
					check(t, tc.clone(fs), true)
					t.Logf("%d clones taken while appending", clones)
					return
				default:
				}
				if _, err := fs.Stat("/f"); err == nil {
					check(t, tc.clone(fs), false)
				}
			}
		})
	}
}
