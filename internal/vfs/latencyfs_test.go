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
	fs.ResetSim()
	f, _ := fs.Open("/f")
	defer f.Close()
	buf := make([]byte, 100)
	f.ReadAt(buf, 1) // only 2 bytes exist past offset 1
	if got, want := fs.SimElapsed(), 2*time.Millisecond; got != want {
		t.Fatalf("short read billed %v; want %v", got, want)
	}
}

// TestLatencyFSResetAndCloneClock: ResetSim zeroes the clock, and CloneFS
// snapshots the inner world but starts the clone's clock at zero — the
// protocol the campaign driver relies on to exclude Setup I/O and make COW
// clones measure like fresh rebuilds.
func TestLatencyFSResetAndCloneClock(t *testing.T) {
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
	if got, _ := ReadFile(clone, "/f"); len(got) != 4096 {
		t.Fatal("clone lost the inner snapshot")
	}
	fs.ResetSim()
	if fs.SimElapsed() != 0 {
		t.Fatal("ResetSim did not zero the clock")
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
// latency-modeled mounts, ignores unmodeled ones, and ResetSim zeroes every
// clocked mount. A world with no clocked mounts still implements SimClocked
// and reports zero — which is what keeps sim_ns omitempty on default
// worlds.
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
	m.ResetSim()
	// One meta op routed into each mount plus unbilled root traffic.
	if err := m.Mkdir("/bb/d"); err != nil {
		t.Fatal(err)
	}
	if err := m.Mkdir("/pfs/d"); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(m, "/rootfile", []byte("free")); err != nil {
		t.Fatal(err)
	}
	if got, want := m.SimElapsed(), 2*time.Millisecond; got != want {
		t.Fatalf("aggregated %v; want %v", got, want)
	}
	m.ResetSim()
	if m.SimElapsed() != 0 || bb.SimElapsed() != 0 || pfs.SimElapsed() != 0 {
		t.Fatal("ResetSim left a mount's clock running")
	}

	plain := NewMountFS(NewMemFS())
	if elapsed, ok := SimElapsed(plain); !ok || elapsed != 0 {
		t.Fatalf("unclocked mount table: SimElapsed = %v, %v; want 0, true", elapsed, ok)
	}
}

// TestSimElapsedHelpers: the package-level helpers answer (0, false) for
// unclocked backends and pass through for clocked ones; ResetSim on an
// unclocked backend is a no-op rather than a panic.
func TestSimElapsedHelpers(t *testing.T) {
	mem := NewMemFS()
	if elapsed, ok := SimElapsed(mem); ok || elapsed != 0 {
		t.Fatalf("MemFS SimElapsed = %v, %v; want 0, false", elapsed, ok)
	}
	ResetSim(mem) // must not panic

	l := NewLatencyFS(NewMemFS(), CostModel{MetaLatency: time.Microsecond})
	l.Mkdir("/d")
	if elapsed, ok := SimElapsed(l); !ok || elapsed != time.Microsecond {
		t.Fatalf("LatencyFS SimElapsed = %v, %v", elapsed, ok)
	}
	ResetSim(l)
	if l.SimElapsed() != 0 {
		t.Fatal("ResetSim helper did not reset")
	}
}
