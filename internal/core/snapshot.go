package core

import (
	"errors"
	"fmt"
	"sync"

	"ffis/internal/vfs"
)

// WorldSnapshot captures a workload's storage world once — NewFS plus a
// single Setup execution — and hands out per-run worlds from it. When the
// world supports copy-on-write cloning (vfs.Cloner: MemFS, and MountFS over
// clonable backends), every World() call is a cheap structural-sharing clone
// of the post-Setup state; otherwise the snapshot degrades to rebuilding the
// world (NewFS + Setup) per call, the paper's original remount-per-run
// procedure. Either way each run observes a bit-identical pristine world, so
// campaign statistics are unaffected by the mode — only the per-run cost is.
type WorldSnapshot struct {
	w        Workload
	pristine vfs.Cloner // non-nil in COW mode

	mu    sync.Mutex
	spare vfs.FS // the probe's build or clone, served to the first World()
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
// vfs.Cloner) falls back to rebuild-per-run transparently.
func NewWorldSnapshot(w Workload) (*WorldSnapshot, error) {
	base, err := buildWorld(w)
	if err != nil {
		return nil, err
	}
	c, ok := base.(vfs.Cloner)
	if !ok {
		// Not a wasted build: the first World() call serves it.
		return &WorldSnapshot{w: w, spare: base}, nil
	}
	// Probe clonability end to end: a MountFS is a Cloner statically but may
	// hold backends that are not. A successful probe clone is kept and
	// served to the first World() call (usually the profiling pass).
	probe, err := c.CloneFS()
	if err != nil {
		if errors.Is(err, vfs.ErrNotClonable) {
			return &WorldSnapshot{w: w, spare: base}, nil
		}
		return nil, fmt.Errorf("core: snapshot world: %w", err)
	}
	return &WorldSnapshot{w: w, pristine: c, spare: probe}, nil
}

// Pristine returns the post-Setup snapshot world itself in COW mode, nil in
// rebuild mode. It is the reference state clones diverge from; treat it as
// read-only — mutating it would silently re-baseline every later clone.
func (s *WorldSnapshot) Pristine() vfs.FS {
	if s.pristine == nil {
		return nil
	}
	return s.pristine.(vfs.FS)
}

// World returns a fresh pristine world for one run: a COW clone of the
// snapshot, or a full rebuild (NewFS + Setup) when the world is not
// clonable. Safe for concurrent use.
func (s *WorldSnapshot) World() (vfs.FS, error) {
	s.mu.Lock()
	if s.spare != nil {
		fs := s.spare
		s.spare = nil
		s.mu.Unlock()
		return fs, nil
	}
	s.mu.Unlock()
	if s.pristine != nil {
		fs, err := s.pristine.CloneFS()
		if err != nil {
			return nil, fmt.Errorf("core: clone world: %w", err)
		}
		return fs, nil
	}
	return buildWorld(s.w)
}
