package vfs

import "time"

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
