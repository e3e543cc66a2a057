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
		cp := n.snapshot()
		n.mu.Unlock()
		cp.cloned = true
		nodes[p] = cp
	}
	return &MemFS{nodes: nodes}
}

// CloneFS implements Cloner.
func (m *MemFS) CloneFS() (FS, error) {
	if m.released.Load() {
		return nil, ErrReleased
	}
	return m.Clone(), nil
}

// cloneBackend snapshots one backend through the Cloner contract. A
// backend that implements Cloner answers for itself, and one that does not
// (OSFS, whose state lives outside the process) is refused with
// ErrNotClonable.
func cloneBackend(fs FS) (FS, error) {
	c, ok := fs.(Cloner)
	if !ok {
		return nil, ErrNotClonable
	}
	return c.CloneFS()
}

// Clone returns a copy-on-write snapshot of the mounted world: the mount
// table is preserved entry for entry, with every backend replaced by its own
// clone. Every backend must support cloning (the error wraps
// ErrNotClonable otherwise); an interposed view (WithInterposed) clones
// only if its wrapper is a Cloner, which core's injector is not —
// snapshots are taken of pristine worlds, before any injector or profiler
// is layered on.
func (m *MountFS) Clone() (*MountFS, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	mounts := make([]mountEntry, len(m.mounts))
	for i, mp := range m.mounts {
		fs, err := cloneBackend(mp.fs)
		if err != nil {
			return nil, &PathError{Op: "clone", Path: mp.path, Err: err}
		}
		mounts[i] = mountEntry{path: mp.path, fs: fs}
	}
	return &MountFS{mounts: mounts, cloned: true}, nil
}

// CloneFS implements Cloner.
func (m *MountFS) CloneFS() (FS, error) { return m.Clone() }

// Unchanged reports whether the file name, in a world made by Clone, still
// holds exactly what it held when the world was cloned: content, size and
// mode, under the same path. False means only "cannot prove": a directory,
// a missing or re-created file, a world not made by Clone, a released one,
// and every backend that does not implement the question (OSFS, ObjectFS,
// LatencyFS, wrappers) answer false.
func Unchanged(fs FS, name string) bool {
	u, ok := fs.(interface{ Unchanged(string) bool })
	return ok && u.Unchanged(name)
}

// Unchanged implements the package function: Clone flags the nodes it
// creates, and every write, truncate and rename of a node clears its flag
// under the node lock.
func (m *MemFS) Unchanged(name string) bool {
	m.mu.RLock()
	n, ok := m.lookup(name)
	m.mu.RUnlock()
	if !ok {
		return false
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.cloned && !n.isDir
}

// Unchanged implements the package function through the backend owning
// name, while the table is the one Clone made: a later Mount may shadow
// the path with another backend.
func (m *MountFS) Unchanged(name string) bool {
	mp, rel := m.resolve(name)
	m.mu.RLock()
	cloned := m.cloned
	m.mu.RUnlock()
	return cloned && Unchanged(mp.fs, rel)
}

var (
	_ Cloner = (*MemFS)(nil)
	_ Cloner = (*MountFS)(nil)
)
