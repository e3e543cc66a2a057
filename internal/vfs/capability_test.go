package vfs

import (
	"errors"
	"testing"
)

// TestBackendCapabilities pins the declared capability profile of every
// backend behind the mount table — the replacement for duck-typed interface
// probing. OSFS is the case that motivates declaration over inference: it
// implements Cloner (to refuse explicitly) yet must not advertise CapClone.
func TestBackendCapabilities(t *testing.T) {
	osfs := NewOSFS(t.TempDir())
	cases := []struct {
		name string
		fs   FS
		want Capability
	}{
		{"MemFS", NewMemFS(), CapClone | CapByteAddressable},
		{"OSFS", osfs, CapByteAddressable},
		{"ObjectFS", NewObjectFS(), CapClone},
		{"LatencyFS(MemFS)", NewLatencyFS(NewMemFS(), BurstBufferModel),
			CapClone | CapByteAddressable | CapLatencyModeled},
		{"LatencyFS(OSFS)", NewLatencyFS(osfs, ParallelFSModel),
			CapByteAddressable | CapLatencyModeled},
	}
	for _, tc := range cases {
		if got := CapabilitiesOf(tc.fs); got != tc.want {
			t.Errorf("%s capabilities = %v; want %v", tc.name, got, tc.want)
		}
	}
}

// TestMountFSCapabilities: the mount table's profile is the intersection of
// its mounts' clone/byte-addressable bits (the world only has a capability
// if every backend does) and the union of the latency bit (one modeled
// mount makes the world's clock meaningful).
func TestMountFSCapabilities(t *testing.T) {
	m := NewMountFS(NewMemFS())
	if got, want := m.Capabilities(), CapClone|CapByteAddressable; got != want {
		t.Fatalf("mem-only table = %v; want %v", got, want)
	}
	if err := m.Mount("/lat", NewLatencyFS(NewMemFS(), BurstBufferModel)); err != nil {
		t.Fatal(err)
	}
	if got, want := m.Capabilities(), CapClone|CapByteAddressable|CapLatencyModeled; got != want {
		t.Fatalf("with latency mount = %v; want %v", got, want)
	}
	if err := m.Mount("/obj", NewObjectFS()); err != nil {
		t.Fatal(err)
	}
	// ObjectFS is not byte-addressable, so the world no longer is.
	if got, want := m.Capabilities(), CapClone|CapLatencyModeled; got != want {
		t.Fatalf("with object mount = %v; want %v", got, want)
	}
	if err := m.Mount("/host", NewOSFS(t.TempDir())); err != nil {
		t.Fatal(err)
	}
	// OSFS cannot clone, so neither can the world.
	if got, want := m.Capabilities(), CapLatencyModeled; got != want {
		t.Fatalf("with os mount = %v; want %v", got, want)
	}
}

func TestCapabilityString(t *testing.T) {
	cases := map[Capability]string{
		0:                                      "none",
		CapClone:                               "clone",
		CapClone | CapByteAddressable:          "clone+byte-addressable",
		CapByteAddressable | CapLatencyModeled: "byte-addressable+latency-modeled",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("%d.String() = %q; want %q", uint32(c), got, want)
		}
	}
}

// TestOSFSCloneRefusesExplicitly: OSFS implements Cloner only to return the
// sentinel — callers probing for snapshot support get a typed refusal
// instead of a failed type assertion.
func TestOSFSCloneRefusesExplicitly(t *testing.T) {
	fs := NewOSFS(t.TempDir())
	cloned, err := fs.CloneFS()
	if cloned != nil || !errors.Is(err, ErrNotClonable) {
		t.Fatalf("CloneFS = %v, %v; want nil, ErrNotClonable", cloned, err)
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
