package vfs

import (
	"strings"
	"sync"
)

// ObjectFS is an S3-style object store behind the FS interface: every file
// is one flat-keyed object, and an overwrite via Create replaces the whole
// object.
//
// The eventual-consistency window below is all ObjectFS adds; the bytes
// and the namespace live in a private MemFS. Its flat key table is the one an s3fs-style
// adapter emulates POSIX over (directories are zero-byte markers, listings
// are prefix scans), and the MemFS gives ObjectFS its copy-on-write Clone
// and its run-scoped block recycling (Recycler). The MemFS is a named
// field, not an embedded one: embedding would promote MemFS.CloneFS, whose
// clone drops the window, and MemFS.Unchanged, which no object world
// answers (vfs.Unchanged is false here).
//
// ConsistencyLag models eventual consistency on overwrite, the classic
// read-after-overwrite anomaly of eventually-consistent stores: when an
// existing key is replaced via Create, the next lag Opens of that key are
// served the superseded object. Lag zero (the default) is strong
// read-after-write, which is what the behavioral contract suite runs
// against. The anomaly is deterministic — it depends only on the sequence
// of Creates and Opens — so campaigns over ObjectFS stay reproducible.
//
// The zero value is not usable; call NewObjectFS.
type ObjectFS struct {
	fs *MemFS

	mu    sync.RWMutex // guards lag and stale
	lag   int
	stale map[string]*staleObject
}

// staleObject is a superseded object still visible to readers: the next
// remaining Opens of its key serve node, a sealed snapshot.
type staleObject struct {
	node      *memNode
	remaining int
}

// NewObjectFS returns an empty object store with strong read-after-write
// consistency (ConsistencyLag 0).
func NewObjectFS() *ObjectFS {
	return &ObjectFS{fs: NewMemFS(), stale: map[string]*staleObject{}}
}

// SetConsistencyLag sets the eventual-consistency window: after an existing
// key is overwritten via Create, the next lag Opens of that key serve the
// superseded object. Zero restores strong consistency. The knob applies to
// overwrites issued after the call.
func (o *ObjectFS) SetConsistencyLag(lag int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.lag = max(lag, 0)
}

// Create opens name for writing, committing a fresh empty object over any
// existing one. With a nonzero consistency lag the superseded object is
// kept visible to the next lag Opens.
func (o *ObjectFS) Create(name string) (File, error) {
	name = Clean(name)
	o.mu.Lock()
	defer o.mu.Unlock()
	n, old, err := o.fs.create(name, o.lag > 0)
	if err != nil {
		return nil, err
	}
	if old != nil {
		o.stale[name] = &staleObject{node: old, remaining: o.lag}
	}
	return &handle{node: memTarget{o.fs, n}, name: name, writable: true}, nil
}

// Open opens name read-only. When the key sits inside an eventual-
// consistency window, the superseded object is served and the window
// shrinks by one.
func (o *ObjectFS) Open(name string) (File, error) {
	name = Clean(name)
	o.mu.Lock()
	defer o.mu.Unlock()
	if s, ok := o.stale[name]; ok {
		if s.remaining--; s.remaining <= 0 {
			delete(o.stale, name)
		}
		return &handle{node: memTarget{o.fs, s.node}, name: name}, nil
	}
	return o.fs.Open(name)
}

// Append opens name for writing with the offset at end-of-object, creating
// it if needed.
func (o *ObjectFS) Append(name string) (File, error) {
	name = Clean(name)
	n, off, err := o.fs.appendNode(name)
	if err != nil {
		return nil, err
	}
	return &handle{node: memTarget{o.fs, n}, name: name, writable: true, off: off}, nil
}

// MkdirAll creates name and any missing parent markers.
func (o *ObjectFS) MkdirAll(name string) error { return o.fs.MkdirAll(name) }

// Remove deletes an object or an empty directory marker. A pending stale
// window for the key is dropped with it.
func (o *ObjectFS) Remove(name string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	err := o.fs.Remove(name)
	if err == nil {
		delete(o.stale, Clean(name))
	}
	return err
}

// Rename rekeys oldName to newName (a prefix rewrite for directories —
// object stores have no rename, so this is the emulated copy-free variant).
// The stale windows of the old keys are dropped.
func (o *ObjectFS) Rename(oldName, newName string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	err := o.fs.Rename(oldName, newName)
	if err == nil && Clean(oldName) != Clean(newName) {
		o.dropStale(oldName)
	}
	return err
}

// dropStale ends the windows of name and every key under it. Caller holds
// o.mu.
func (o *ObjectFS) dropStale(name string) {
	name = Clean(name)
	for p := range o.stale {
		if p == name || strings.HasPrefix(p, dirPrefix(name)) {
			delete(o.stale, p)
		}
	}
}

// Stat returns metadata for name (always the current generation; the
// eventual-consistency window applies to Open only, matching stores whose
// LIST/HEAD and GET planes converge at different times).
func (o *ObjectFS) Stat(name string) (FileInfo, error) { return o.fs.Stat(name) }

// ReadDir lists the immediate children of name in sorted order — a prefix
// scan over the key table, delimiter-style.
func (o *ObjectFS) ReadDir(name string) ([]FileInfo, error) { return o.fs.ReadDir(name) }

// Truncate resizes name.
func (o *ObjectFS) Truncate(name string, size int64) error { return o.fs.Truncate(name, size) }

// Clone returns a copy-on-write snapshot: the MemFS holding the objects is
// cloned, so the first write on either side copies just the blocks it
// touches. Pending eventual-
// consistency windows are carried over (counters copied, superseded
// snapshots shared) so a cloned world replays the same anomaly sequence a
// rebuilt one would.
func (o *ObjectFS) Clone() *ObjectFS {
	o.mu.RLock()
	defer o.mu.RUnlock()
	stale := make(map[string]*staleObject, len(o.stale))
	for p, s := range o.stale {
		cp := *s
		stale[p] = &cp
	}
	return &ObjectFS{fs: o.fs.Clone(), lag: o.lag, stale: stale}
}

// CloneFS implements Cloner.
func (o *ObjectFS) CloneFS() (FS, error) {
	if o.fs.released.Load() {
		return nil, ErrReleased
	}
	return o.Clone(), nil
}

// Attach implements Recycler: the objects' blocks come from l.
func (o *ObjectFS) Attach(l *BlockList) { o.fs.Attach(l) }

// Release implements Recycler. The stale windows end with the world;
// their snapshots are sealed, so none of their blocks is recycled.
func (o *ObjectFS) Release() {
	o.mu.Lock()
	defer o.mu.Unlock()
	clear(o.stale)
	o.fs.Release()
}

var (
	_ FS       = (*ObjectFS)(nil)
	_ Cloner   = (*ObjectFS)(nil)
	_ Recycler = (*ObjectFS)(nil)
)
