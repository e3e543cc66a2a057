package vfs

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"ffis/internal/stats"
)

func TestCleanNormalizes(t *testing.T) {
	cases := map[string]string{
		"":           "/",
		"/":          "/",
		"a":          "/a",
		"/a/b/../c":  "/a/c",
		"//a///b":    "/a/b",
		"a/b/./c":    "/a/b/c",
		"/trailing/": "/trailing",
	}
	for in, want := range cases {
		if got := Clean(in); got != want {
			t.Errorf("Clean(%q) = %q, want %q", in, got, want)
		}
	}
}

// Property: read-after-write returns exactly what was written, for random
// offsets and payloads.
func TestQuickReadAfterWrite(t *testing.T) {
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		fs := NewMemFS()
		h, err := fs.Create("/q")
		if err != nil {
			return false
		}
		type write struct {
			off  int64
			data []byte
		}
		var writes []write
		for i := 0; i < 10; i++ {
			n := r.Intn(256) + 1
			data := make([]byte, n)
			for j := range data {
				data[j] = byte(r.Uint64())
			}
			off := int64(r.Intn(1024))
			if _, err := h.WriteAt(data, off); err != nil {
				return false
			}
			writes = append(writes, write{off, data})
		}
		// Replay writes onto a plain buffer and compare.
		var model []byte
		for _, w := range writes {
			if grow := w.off + int64(len(w.data)) - int64(len(model)); grow > 0 {
				model = append(model, make([]byte, grow)...)
			}
			copy(model[w.off:], w.data)
		}
		got, err := ReadFile(fs, "/q")
		return err == nil && bytes.Equal(got, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestMemFileCloseExcludesInFlightIO pins the close barrier: Close holds
// the handle's write lock, so once it returns no operation that started
// before it is still touching the node and no later one can succeed. The
// old implementation checked closed, released the handle lock, and then
// performed the I/O — a straggler WriteAt could land on the node after
// Close returned. The test closes mid-hammer and then asserts the file
// stays in the state the closer left it in.
func TestMemFileCloseExcludesInFlightIO(t *testing.T) {
	fs := NewMemFS()
	for iter := 0; iter < 300; iter++ {
		f, err := fs.Create("/f")
		if err != nil {
			t.Fatal(err)
		}
		started := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			first := true
			for {
				if _, err := f.WriteAt([]byte{'x'}, 0); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("writer error: %v", err)
					}
					return
				}
				if first {
					close(started)
					first = false
				}
			}
		}()
		<-started
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		// After Close returns, no write through f may land anymore: reset
		// the content through the FS and it must stay reset.
		if err := fs.Truncate("/f", 0); err != nil {
			t.Fatal(err)
		}
		if err := fs.Truncate("/f", 1); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(fs, "/f")
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0] != 0 {
			t.Fatalf("iter %d: write landed after Close returned: %q", iter, got)
		}
		<-done
		// Operations started after Close fail.
		if _, err := f.WriteAt([]byte{'x'}, 0); !errors.Is(err, ErrClosed) {
			t.Fatalf("WriteAt after close: %v", err)
		}
		if _, err := f.ReadAt(make([]byte, 1), 0); !errors.Is(err, ErrClosed) {
			t.Fatalf("ReadAt after close: %v", err)
		}
		if _, err := f.Size(); !errors.Is(err, ErrClosed) {
			t.Fatalf("Size after close: %v", err)
		}
	}
}

// refFile mirrors a MemFS file as one flat byte slice; the extent-backed
// node must agree with it after any operation sequence.
type refFile struct{ data []byte }

func (r *refFile) writeAt(p []byte, off int64) {
	if end := off + int64(len(p)); end > int64(len(r.data)) {
		r.data = append(r.data, make([]byte, end-int64(len(r.data)))...)
	}
	copy(r.data[off:], p)
}

func (r *refFile) truncate(size int64) {
	if size <= int64(len(r.data)) {
		r.data = r.data[:size]
		return
	}
	r.data = append(r.data, make([]byte, size-int64(len(r.data)))...)
}

// TestMemFSExtentModel drives the block-table storage through a long
// deterministic random sequence of writes, truncates, and clones, checking
// full content equality against a flat-slice reference model after every
// step. Offsets and lengths are drawn around the BlockSize boundaries so
// partial blocks, spanning writes, sparse holes, and shrink-then-grow
// sequences (where stale block bytes must read back as zeros) all occur.
func TestMemFSExtentModel(t *testing.T) {
	rng := stats.NewRNG(7)
	fs := NewMemFS()
	ref := &refFile{}
	if _, err := fs.Create("/f"); err != nil {
		t.Fatal(err)
	}
	var clones []*MemFS
	var cloneWant [][]byte

	check := func(step int, fsys FS, want []byte, who string) {
		got, err := ReadFile(fsys, "/f")
		if err != nil {
			t.Fatalf("step %d: read %s: %v", step, who, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("step %d: %s diverged from model: len %d vs %d", step, who, len(got), len(want))
		}
	}

	maxOff := int64(3*BlockSize + BlockSize/2)
	for step := 0; step < 400; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5: // write
			off := int64(rng.Intn(int(maxOff)))
			n := rng.Intn(BlockSize + 17)
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = byte(step + i)
			}
			f, err := fs.Append("/f")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(buf, off); err != nil {
				t.Fatal(err)
			}
			f.Close()
			ref.writeAt(buf, off)
		case 6, 7: // truncate (both directions)
			size := int64(rng.Intn(int(maxOff)))
			if err := fs.Truncate("/f", size); err != nil {
				t.Fatal(err)
			}
			ref.truncate(size)
		case 8: // clone; the snapshot must stay frozen from here on
			clones = append(clones, fs.Clone())
			cloneWant = append(cloneWant, append([]byte(nil), ref.data...))
		case 9: // write through a clone; the original must not see it
			if len(clones) == 0 {
				continue
			}
			i := rng.Intn(len(clones))
			c := clones[i]
			off := int64(rng.Intn(int(maxOff)))
			buf := []byte{byte(step), byte(step + 1)}
			f, err := c.Append("/f")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(buf, off); err != nil {
				t.Fatal(err)
			}
			f.Close()
			// The clone diverged; retire it from the frozen set.
			clones[i] = clones[len(clones)-1]
			clones = clones[:len(clones)-1]
			cloneWant[i] = cloneWant[len(cloneWant)-1]
			cloneWant = cloneWant[:len(cloneWant)-1]
		}
		check(step, fs, ref.data, "original")
		sz, err := fs.Stat("/f")
		if err != nil {
			t.Fatal(err)
		}
		if sz.Size != int64(len(ref.data)) {
			t.Fatalf("step %d: Stat size %d, model %d", step, sz.Size, len(ref.data))
		}
		for i, c := range clones {
			check(step, c, cloneWant[i], "clone")
		}
	}
}

// TestMemFSTruncateStaleBlockBytes pins the shrink-then-grow contract per
// extent: bytes between the old and new EOF must read as zeros, both when
// the tail block is privately owned and when it is sealed by a clone.
func TestMemFSTruncateStaleBlockBytes(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		name := map[bool]string{false: "owned", true: "sealed"}[sealed]
		t.Run(name, func(t *testing.T) {
			fs := NewMemFS()
			full := bytes.Repeat([]byte{0xAA}, 2*BlockSize+100)
			if err := WriteFile(fs, "/f", full); err != nil {
				t.Fatal(err)
			}
			if sealed {
				fs.Clone() // seal every block of /f
			}
			if err := fs.Truncate("/f", int64(BlockSize+10)); err != nil {
				t.Fatal(err)
			}
			if err := fs.Truncate("/f", int64(2*BlockSize)); err != nil {
				t.Fatal(err)
			}
			got, err := ReadFile(fs, "/f")
			if err != nil {
				t.Fatal(err)
			}
			want := append(bytes.Repeat([]byte{0xAA}, BlockSize+10), make([]byte, BlockSize-10)...)
			if !bytes.Equal(got, want) {
				t.Fatal("stale block bytes resurfaced after shrink-then-grow")
			}
		})
	}
}

// TestMemFSSparseHoleReadsZero: writing far past EOF materializes nothing
// in between, and the hole reads back as zeros.
func TestMemFSSparseHoleReadsZero(t *testing.T) {
	fs := NewMemFS()
	f, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	off := int64(5*BlockSize + 3)
	if _, err := f.WriteAt([]byte("tail"), off); err != nil {
		t.Fatal(err)
	}
	sz, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	if want := off + 4; sz != want {
		t.Fatalf("size %d, want %d", sz, want)
	}
	got, err := ReadFile(fs, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:off], make([]byte, off)) {
		t.Fatal("hole is not zero")
	}
	if string(got[off:]) != "tail" {
		t.Fatalf("tail content %q", got[off:])
	}
	// The hole blocks really are unmaterialized nil extents.
	n := fs.nodes["/f"]
	for i := 0; i < 5; i++ {
		if n.blocks[i] != nil {
			t.Fatalf("hole block %d materialized", i)
		}
	}
}
