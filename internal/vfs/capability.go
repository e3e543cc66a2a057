package vfs

import (
	"strings"
	"time"
)

// Capability is a bitmask describing what a backend can do. Backends declare
// their capabilities by implementing CapabilityReporter; consumers ask
// through CapabilitiesOf instead of duck-typing the concrete FS. The three
// bits mirror the axes the campaign machinery actually branches on:
//
//   - CapClone: the backend implements Cloner and CloneFS succeeds — the
//     COW snapshot engine can clone worlds instead of rebuilding them.
//     A backend may implement Cloner *without* this bit (OSFS does, so
//     MountFS.Clone reports a real ErrNotClonable instead of a failed
//     type assertion), but never the reverse.
//   - CapByteAddressable: writes land at byte granularity. Backends
//     without this bit (ObjectFS) commit whole objects on every write —
//     read-modify-write semantics with the amplification that implies.
//   - CapLatencyModeled: the backend charges I/O against a deterministic
//     simulated clock readable through SimElapsed.
type Capability uint32

const (
	// CapClone marks a backend whose CloneFS returns a COW snapshot.
	CapClone Capability = 1 << iota
	// CapByteAddressable marks a backend that persists writes at byte
	// (or block) granularity rather than whole-object replacement.
	CapByteAddressable
	// CapLatencyModeled marks a backend that accumulates simulated I/O
	// time on a SimClocked clock.
	CapLatencyModeled
)

// Has reports whether every bit in q is set in c.
func (c Capability) Has(q Capability) bool { return c&q == q }

// String renders the set bits as a stable "+"-joined list, "none" when empty.
func (c Capability) String() string {
	var parts []string
	for _, b := range []struct {
		bit  Capability
		name string
	}{
		{CapClone, "clone"},
		{CapByteAddressable, "byte-addressable"},
		{CapLatencyModeled, "latency-modeled"},
	} {
		if c.Has(b.bit) {
			parts = append(parts, b.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// CapabilityReporter is implemented by backends that declare their
// capability set. All backends in this package implement it.
type CapabilityReporter interface {
	Capabilities() Capability
}

// CapabilitiesOf returns the declared capability set of fs. A backend that
// does not implement CapabilityReporter declares nothing.
func CapabilitiesOf(fs FS) Capability {
	if r, ok := fs.(CapabilityReporter); ok {
		return r.Capabilities()
	}
	return 0
}

// SimClocked is implemented by backends that model I/O latency against a
// deterministic simulated clock. The clock is monotone within a run and
// charged by commutative atomic additions, so the accumulated total is
// independent of goroutine interleaving — workers 1 and workers 8 campaigns
// report identical simulated times.
type SimClocked interface {
	// SimElapsed returns the simulated I/O time accumulated since the
	// backend was created, cloned, or last reset.
	SimElapsed() time.Duration
	// ResetSim zeroes the simulated clock. The campaign driver resets
	// immediately before each run so setup and profiling I/O is excluded
	// and COW-cloned and rebuilt worlds measure identically.
	ResetSim()
}

// SimElapsed reads fs's simulated clock. The second return is false when fs
// does not model latency (the elapsed time is then zero by definition).
func SimElapsed(fs FS) (time.Duration, bool) {
	if c, ok := fs.(SimClocked); ok {
		return c.SimElapsed(), true
	}
	return 0, false
}

// ResetSim zeroes fs's simulated clock; a no-op for unclocked backends.
func ResetSim(fs FS) {
	if c, ok := fs.(SimClocked); ok {
		c.ResetSim()
	}
}
