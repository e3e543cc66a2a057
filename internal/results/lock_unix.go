//go:build unix

package results

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// lock takes an exclusive advisory flock on the store, so two processes can
// never stream into the same directory at once — a double-fired -resume
// would otherwise truncate and interleave each other's partial files — and
// returns the release function. Adopt takes it, and its caller holds it
// while the grid writes: RunGrid for its duration, the campaign
// coordinator daemon until Close. The lock is non-blocking (the second
// writer fails fast with a pointed error) and kernel-held, so it vanishes
// with the process: a kill -9 leaves no stale lock to clean up. Readers
// (-report) take no lock; they see a valid in-order prefix by
// construction.
func (st *Store) lock() (func(), error) {
	f, err := os.OpenFile(filepath.Join(st.dir, ".lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("results: lock store: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("results: store %s is being written by another process (concurrent -resume?): %w", st.dir, err)
	}
	return func() {
		syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
		f.Close()
	}, nil
}
