package vfs

import (
	"errors"
	"testing"
	"time"
)

// TestLatencyFSDeterministicCharges: the simulated clock advances by an
// exactly computable amount — per-class latency plus bytes moved over the
// tier's bandwidth — so two identical operation sequences always price
// identically.
func TestLatencyFSDeterministicCharges(t *testing.T) {
	cost := CostModel{
		ReadLatency:      10 * time.Microsecond,
		WriteLatency:     20 * time.Microsecond,
		MetaLatency:      5 * time.Microsecond,
		ReadBytesPerSec:  1 << 20,
		WriteBytesPerSec: 1 << 20,
	}
	run := func() time.Duration {
		fs := NewLatencyFS(NewMemFS(), cost)
		f, err := fs.Create("/f") // meta
		if err != nil {
			t.Fatal(err)
		}
		payload := make([]byte, 1<<19) // half the bandwidth budget: 0.5s
		if _, err := f.Write(payload); err != nil {
			t.Fatal(err)
		}
		f.Close()
		g, err := fs.Open("/f") // meta
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 1<<19)
		if _, err := g.ReadAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		g.Close()
		return fs.SimElapsed()
	}
	want := 2*cost.MetaLatency + cost.WriteLatency + cost.ReadLatency + time.Second
	if got := run(); got != want {
		t.Fatalf("charged %v; want %v", got, want)
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical sequences priced differently: %v vs %v", a, b)
	}
}

// TestLatencyFSBillsBytesMoved: a short read is billed for the bytes that
// actually transferred, not the buffer size.
func TestLatencyFSBillsBytesMoved(t *testing.T) {
	cost := CostModel{ReadBytesPerSec: 1000} // 1ms per byte, no fixed latency
	fs := NewLatencyFS(NewMemFS(), cost)
	if err := WriteFile(fs, "/f", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	before := fs.SimElapsed()
	f, _ := fs.Open("/f")
	defer f.Close()
	buf := make([]byte, 100)
	f.ReadAt(buf, 1) // only 2 bytes exist past offset 1
	if got, want := fs.SimElapsed()-before, 2*time.Millisecond; got != want {
		t.Fatalf("short read billed %v; want %v", got, want)
	}
}

// TestLatencyFSCloneStartsFreshClock: CloneFS snapshots the inner world
// but starts the clone's clock at zero, and the two clocks run apart from
// then on — what the campaign driver relies on to exclude Setup I/O from
// every run.
func TestLatencyFSCloneStartsFreshClock(t *testing.T) {
	fs := NewLatencyFS(NewMemFS(), BurstBufferModel)
	if err := WriteFile(fs, "/f", make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if fs.SimElapsed() == 0 {
		t.Fatal("setup I/O charged nothing")
	}
	cloned, err := fs.CloneFS()
	if err != nil {
		t.Fatal(err)
	}
	clone := cloned.(*LatencyFS)
	if clone.SimElapsed() != 0 {
		t.Fatalf("clone inherited %v of clock", clone.SimElapsed())
	}
	setup := fs.SimElapsed()
	if got, _ := ReadFile(clone, "/f"); len(got) != 4096 {
		t.Fatal("clone lost the inner snapshot")
	}
	if clone.SimElapsed() == 0 || fs.SimElapsed() != setup {
		t.Fatalf("a read of the clone charged it %v and its source %v", clone.SimElapsed(), fs.SimElapsed()-setup)
	}
}

// TestLatencyFSRequiresClonableInner: wrapping a non-clonable backend is
// fine for plain use but CloneFS must refuse with the sentinel.
func TestLatencyFSRequiresClonableInner(t *testing.T) {
	fs := NewLatencyFS(NewOSFS(t.TempDir()), ParallelFSModel)
	if _, err := fs.CloneFS(); !errors.Is(err, ErrNotClonable) {
		t.Fatalf("CloneFS over OSFS err = %v, want ErrNotClonable", err)
	}
}

// TestMountFSSimAggregation: a mount table sums simulated time across its
// latency-modeled mounts, ignores unmodeled ones, and a clone of the
// table starts every clocked mount at zero. A world with no clocked mounts
// still implements SimClocked and reports zero — which is what keeps
// sim_ns omitempty on default worlds.
func TestMountFSSimAggregation(t *testing.T) {
	cost := CostModel{MetaLatency: time.Millisecond}
	bb := NewLatencyFS(NewMemFS(), cost)
	pfs := NewLatencyFS(NewMemFS(), cost)
	m := NewMountFS(NewMemFS())
	if err := m.Mount("/bb", bb); err != nil {
		t.Fatal(err)
	}
	if err := m.Mount("/pfs", pfs); err != nil {
		t.Fatal(err)
	}
	// Mount bills each backend for creating its mount-point directory.
	before := m.SimElapsed()
	// One meta op routed into each mount plus unbilled root traffic.
	if err := m.MkdirAll("/bb/d"); err != nil {
		t.Fatal(err)
	}
	if err := m.MkdirAll("/pfs/d"); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(m, "/rootfile", []byte("free")); err != nil {
		t.Fatal(err)
	}
	if got, want := m.SimElapsed()-before, 2*time.Millisecond; got != want {
		t.Fatalf("aggregated %v; want %v", got, want)
	}
	clone, err := m.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := clone.SimElapsed(); elapsed != 0 {
		t.Fatalf("a clone of the table inherited %v of its mounts' clocks", elapsed)
	}

	plain := NewMountFS(NewMemFS())
	if elapsed, ok := SimElapsed(plain); !ok || elapsed != 0 {
		t.Fatalf("unclocked mount table: SimElapsed = %v, %v; want 0, true", elapsed, ok)
	}
}

// TestSimElapsedHelpers: the package-level SimElapsed answers (0, false)
// for unclocked backends and passes through for clocked ones.
func TestSimElapsedHelpers(t *testing.T) {
	mem := NewMemFS()
	if elapsed, ok := SimElapsed(mem); ok || elapsed != 0 {
		t.Fatalf("MemFS SimElapsed = %v, %v; want 0, false", elapsed, ok)
	}
	l := NewLatencyFS(NewMemFS(), CostModel{MetaLatency: time.Microsecond})
	l.MkdirAll("/d")
	if elapsed, ok := SimElapsed(l); !ok || elapsed != time.Microsecond {
		t.Fatalf("LatencyFS SimElapsed = %v, %v", elapsed, ok)
	}
}
