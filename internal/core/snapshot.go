package core

import (
	"fmt"
	"sync"

	"ffis/internal/vfs"
)

// WorldSnapshot captures a workload's storage world once — NewFS plus a
// single Setup execution — and hands out per-run worlds from it: every
// World() call is a copy-on-write clone of the post-Setup state, so each
// run observes a bit-identical pristine world at the cost of a structural
// share, not a rebuild.
type WorldSnapshot struct {
	pristine vfs.Cloner

	mu    sync.Mutex
	spare vfs.FS // the probe clone, served to the first World()
}

// buildWorld constructs the workload's world and runs Setup on it.
func buildWorld(w Workload) (vfs.FS, error) {
	base, err := newWorld(w)
	if err != nil {
		return nil, fmt.Errorf("core: world: %w", err)
	}
	if w.Setup != nil {
		if err := w.Setup(base); err != nil {
			return nil, fmt.Errorf("core: setup: %w", err)
		}
	}
	return base, nil
}

// NewWorldSnapshot builds the workload's world, runs Setup once, and returns
// a snapshot serving COW clones of the result. A world that cannot be
// cloned (a custom NewFS whose file system, or a mount of it, is not a
// vfs.Cloner) fails with an error wrapping vfs.ErrNotClonable.
func NewWorldSnapshot(w Workload) (*WorldSnapshot, error) {
	base, err := buildWorld(w)
	if err != nil {
		return nil, err
	}
	c, ok := base.(vfs.Cloner)
	if !ok {
		return nil, fmt.Errorf("core: snapshot world of %s: %w", w.Name, vfs.ErrNotClonable)
	}
	// Probe clonability end to end: a MountFS is a Cloner statically but may
	// hold backends that are not. The probe clone is kept and served to the
	// first World() call (usually the profiling pass).
	probe, err := c.CloneFS()
	if err != nil {
		return nil, fmt.Errorf("core: snapshot world of %s: %w", w.Name, err)
	}
	return &WorldSnapshot{pristine: c, spare: probe}, nil
}

// World returns a fresh pristine world for one run: a COW clone of the
// snapshot. Safe for concurrent use.
func (s *WorldSnapshot) World() (vfs.FS, error) {
	s.mu.Lock()
	if fs := s.spare; fs != nil {
		s.spare = nil
		s.mu.Unlock()
		return fs, nil
	}
	s.mu.Unlock()
	fs, err := s.pristine.CloneFS()
	if err != nil {
		return nil, fmt.Errorf("core: clone world: %w", err)
	}
	return fs, nil
}
