package vfs

import "errors"

// ErrNotClonable reports a backend that cannot produce a copy-on-write
// snapshot of itself (e.g. OSFS, whose state lives outside the process).
// Callers that want a clone-or-rebuild policy test for it with errors.Is.
var ErrNotClonable = errors.New("vfs: backend does not support cloning")

// Cloner is implemented by file systems that can snapshot themselves as a
// cheap copy-on-write clone: the clone and the receiver observe identical
// state at clone time, and from then on mutations on either side are
// invisible to the other. This is the world-duplication primitive of
// campaign engines: Setup runs once, and every injection run receives a
// clone instead of re-executing the workload's world construction.
type Cloner interface {
	CloneFS() (FS, error)
}

// Clone returns a copy-on-write snapshot of the file system. The namespace
// (the node table) and each node's block table are copied eagerly — O(node
// count + total extent count) pointer work, no content bytes — while the
// extents themselves are shared structurally: every block of every
// snapshotted node is sealed (made immutable), and from then on a write in
// either tree copies just the sealed blocks it touches into private
// replacements (memNode.ownBlock), leaving every untouched extent shared.
// Divergence therefore costs O(changed data), not O(file size).
//
// Each node is sealed and copied under its own lock, so a clone taken
// while another goroutine writes through an open handle observes each node
// either entirely before or entirely after that write — never a torn
// state — and post-clone writes on either side stay invisible to the
// other. Open handles on the receiver keep addressing the receiver's
// nodes; the clone starts with no open handles.
func (m *MemFS) Clone() *MemFS {
	m.mu.RLock()
	defer m.mu.RUnlock()
	nodes := make(map[string]*memNode, len(m.nodes))
	for p, n := range m.nodes {
		n.mu.Lock()
		for _, b := range n.blocks {
			if b != nil {
				b.seal()
			}
		}
		nodes[p] = &memNode{
			size:   n.size,
			blocks: append([]*memBlock(nil), n.blocks...),
			mode:   n.mode,
			isDir:  n.isDir,
			dev:    n.dev,
		}
		n.mu.Unlock()
	}
	return &MemFS{nodes: nodes}
}

// CloneFS implements Cloner.
func (m *MemFS) CloneFS() (FS, error) { return m.Clone(), nil }

// cloneBackend snapshots one backend through the Cloner contract. A
// backend that implements Cloner answers for itself — OSFS implements the
// interface precisely to return ErrNotClonable explicitly, so callers see
// the real refusal rather than a failed type assertion — while a backend
// that doesn't is refused here with the same sentinel. Either way the
// declared capability set tells the story up front: a backend without
// CapClone never produces a snapshot.
func cloneBackend(fs FS) (FS, error) {
	c, ok := fs.(Cloner)
	if !ok {
		return nil, ErrNotClonable
	}
	return c.CloneFS()
}

// Clone returns a copy-on-write snapshot of the mounted world: the mount
// table is preserved entry for entry, with every backend replaced by its own
// clone. Every backend must support cloning (see CapClone; the error wraps
// ErrNotClonable otherwise), and an interposed view (WithInterposed) cannot
// be cloned — snapshots are taken of pristine worlds, before any injector
// or profiler is layered on.
func (m *MountFS) Clone() (*MountFS, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	mounts := make([]mountEntry, len(m.mounts))
	for i, mp := range m.mounts {
		if mp.abs {
			return nil, &PathError{Op: "clone", Path: mp.path, Err: errors.New("vfs: cannot clone an interposed view")}
		}
		fs, err := cloneBackend(mp.fs)
		if err != nil {
			return nil, &PathError{Op: "clone", Path: mp.path, Err: err}
		}
		mounts[i] = mountEntry{path: mp.path, fs: fs}
	}
	return &MountFS{mounts: mounts}, nil
}

// CloneFS implements Cloner.
func (m *MountFS) CloneFS() (FS, error) { return m.Clone() }

var (
	_ Cloner = (*MemFS)(nil)
	_ Cloner = (*MountFS)(nil)
)
