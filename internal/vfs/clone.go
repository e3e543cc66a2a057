package vfs

import "errors"

// ErrNotClonable reports a backend that cannot produce a copy-on-write
// snapshot of itself (e.g. OSFS, whose state lives outside the process).
// A campaign cannot run on such a world: core.NewWorldSnapshot fails with
// an error wrapping it.
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
		if n.origin == nil && !n.isDir {
			n.origin = new(Token)
		}
		cp := n.snapshot()
		cp.origin = n.origin
		n.mu.Unlock()
		nodes[p] = cp
	}
	return &MemFS{nodes: nodes, cloned: true}
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

// Token is the identity of the bytes a snapshot holds for one file. It is
// not zero-sized, so every token has an address of its own.
type Token struct{ _ byte }

// Origin returns the token of the file name. The first Clone of a world
// mints one per file and shares it with every copy; a write, truncate,
// rename, create-over or Release of the file drops it. Equal tokens thus
// prove equal bytes, in any two worlds. Nil only means "cannot prove": a
// directory, a missing or re-created file, a world Clone did not make, and
// every view whose reads a record or trace can see (ObjectFS, OSFS,
// LatencyFS, trace.Recorder, an interposed MountFS) answer nil.
func Origin(fs FS, name string) *Token {
	if o, ok := fs.(interface{ Origin(string) *Token }); ok {
		return o.Origin(name)
	}
	return nil
}

// Unchanged reports whether the file name, in a world made by Clone, still
// holds exactly what it held when the world was cloned: content, size and
// mode, under the same path. It is Origin(fs, name) != nil, and false
// likewise means only "cannot prove".
func Unchanged(fs FS, name string) bool { return Origin(fs, name) != nil }

// Origin implements the package function.
func (m *MemFS) Origin(name string) *Token {
	if !m.cloned {
		return nil
	}
	m.mu.RLock()
	n, ok := m.lookup(name)
	m.mu.RUnlock()
	if !ok {
		return nil
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.origin
}

// Origin implements the package function through the backend owning
// name, while the table is the one Clone made: a later Mount may shadow
// the path with another backend.
func (m *MountFS) Origin(name string) *Token {
	mp, rel := m.resolve(name)
	m.mu.RLock()
	cloned := m.cloned
	m.mu.RUnlock()
	if !cloned {
		return nil
	}
	return Origin(mp.fs, rel)
}

var (
	_ Cloner = (*MemFS)(nil)
	_ Cloner = (*MountFS)(nil)
)
