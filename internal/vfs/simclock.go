package vfs

import "time"

// SimClocked is implemented by backends that model I/O latency against a
// deterministic simulated clock. The clock is monotone and charged by
// commutative atomic additions, so the accumulated total is independent of
// goroutine interleaving — workers 1 and workers 8 campaigns report
// identical simulated times. A clone starts its own clock at zero, which
// is how the campaign driver excludes setup and profiling I/O from a run.
type SimClocked interface {
	// SimElapsed returns the simulated I/O time accumulated since the
	// backend was created or cloned.
	SimElapsed() time.Duration
}

// SimElapsed reads fs's simulated clock. The second return is false when fs
// does not model latency (the elapsed time is then zero by definition).
func SimElapsed(fs FS) (time.Duration, bool) {
	if c, ok := fs.(SimClocked); ok {
		return c.SimElapsed(), true
	}
	return 0, false
}
