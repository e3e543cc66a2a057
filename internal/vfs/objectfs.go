package vfs

import (
	"io"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ObjectFS is an S3-style object store behind the FS interface: every file
// is one flat-keyed, immutable-once-committed object, and every mutation —
// a 4-byte WriteAt included — commits a complete replacement object. That
// is the read-modify-write semantics of real object stores, where there is
// no partial PUT: the writer fetches the object, patches it in memory, and
// uploads the whole thing again. RewrittenBytes accumulates the committed
// object sizes so experiments can report the write amplification a
// byte-addressable backend (MemFS) never pays.
//
// The POSIX face the applications need (directories, Rename, ReadDir) is
// emulated over the flat key namespace the same way s3fs-style adapters do:
// directory entries are zero-byte markers in the key table, listings are
// prefix scans. Campaign machinery carries over unchanged because ObjectFS
// implements Cloner — Clone seals every object version and shares it
// structurally, and the first write to a sealed object pays a whole-object
// copy (the per-object analogue of MemFS's per-extent seal-and-copy).
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
	mu    sync.RWMutex
	nodes map[string]*objNode
	lag   int
	stale map[string]*staleObject

	rewritten atomic.Int64
}

// objNode is a key-table entry: an object (file) or a directory marker.
type objNode struct {
	mu    sync.RWMutex
	ver   *memBlock // committed object version; nil for directories
	mode  uint32
	isDir bool
	dev   uint64
}

// staleObject is a superseded object generation still visible to readers:
// the next remaining Opens of the key observe data instead of the current
// version.
type staleObject struct {
	data      []byte
	mode      uint32
	remaining int
}

// NewObjectFS returns an empty object store with strong read-after-write
// consistency (ConsistencyLag 0).
func NewObjectFS() *ObjectFS {
	return &ObjectFS{
		nodes: map[string]*objNode{
			"/": {isDir: true, mode: 0o755},
		},
		stale: map[string]*staleObject{},
	}
}

// SetConsistencyLag sets the eventual-consistency window: after an existing
// key is overwritten via Create, the next lag Opens of that key serve the
// superseded object. Zero restores strong consistency. The knob applies to
// overwrites issued after the call.
func (o *ObjectFS) SetConsistencyLag(lag int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if lag < 0 {
		lag = 0
	}
	o.lag = lag
}

// RewrittenBytes reports the total bytes committed by whole-object writes
// since construction (clones start at zero). Every mutating data operation
// commits the full resulting object, so the ratio of RewrittenBytes to the
// bytes the application logically wrote is the object store's write
// amplification.
func (o *ObjectFS) RewrittenBytes() int64 { return o.rewritten.Load() }

// Capabilities declares the backend profile: clonable, but whole-object
// rather than byte-addressable.
func (o *ObjectFS) Capabilities() Capability { return CapClone }

func (o *ObjectFS) parentOK(name string) error {
	dir := path.Dir(name)
	n, ok := o.nodes[dir]
	if !ok {
		return &PathError{Op: "open", Path: name, Err: ErrNotExist}
	}
	if !n.isDir {
		return &PathError{Op: "open", Path: name, Err: ErrNotDir}
	}
	return nil
}

// Create opens name for writing, committing a fresh empty object over any
// existing one. With a nonzero consistency lag the superseded object is
// kept visible to the next lag Opens.
func (o *ObjectFS) Create(name string) (File, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	name = Clean(name)
	if err := o.parentOK(name); err != nil {
		return nil, err
	}
	if n, ok := o.nodes[name]; ok {
		if n.isDir {
			return nil, &PathError{Op: "create", Path: name, Err: ErrIsDir}
		}
		n.mu.Lock()
		if o.lag > 0 && len(n.ver.data) > 0 {
			n.ver.seal()
			o.stale[name] = &staleObject{data: n.ver.data, mode: n.mode, remaining: o.lag}
		}
		n.ver = &memBlock{}
		n.mu.Unlock()
		return &handle{node: objTarget{o, n}, name: name, writable: true}, nil
	}
	n := &objNode{mode: 0o644, ver: &memBlock{}}
	o.nodes[name] = n
	return &handle{node: objTarget{o, n}, name: name, writable: true}, nil
}

// Open opens name read-only. When the key sits inside an eventual-
// consistency window, the superseded object is served and the window
// shrinks by one.
func (o *ObjectFS) Open(name string) (File, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	name = Clean(name)
	if s, ok := o.stale[name]; ok {
		s.remaining--
		if s.remaining <= 0 {
			delete(o.stale, name)
		}
		n := &objNode{mode: s.mode, ver: &memBlock{data: s.data}}
		n.ver.sealed.Store(true)
		return &handle{node: objTarget{o, n}, name: name, writable: false}, nil
	}
	n, ok := o.nodes[name]
	if !ok {
		return nil, &PathError{Op: "open", Path: name, Err: ErrNotExist}
	}
	if n.isDir {
		return nil, &PathError{Op: "open", Path: name, Err: ErrIsDir}
	}
	return &handle{node: objTarget{o, n}, name: name, writable: false}, nil
}

// Append opens name for writing with the offset at end-of-object, creating
// it if needed. Every subsequent write still commits the whole object.
func (o *ObjectFS) Append(name string) (File, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	name = Clean(name)
	if err := o.parentOK(name); err != nil {
		return nil, err
	}
	n, ok := o.nodes[name]
	if !ok {
		n = &objNode{mode: 0o644, ver: &memBlock{}}
		o.nodes[name] = n
	} else if n.isDir {
		return nil, &PathError{Op: "append", Path: name, Err: ErrIsDir}
	}
	n.mu.RLock()
	off := int64(len(n.ver.data))
	n.mu.RUnlock()
	return &handle{node: objTarget{o, n}, name: name, writable: true, off: off}, nil
}

// Mkdir creates a single directory marker.
func (o *ObjectFS) Mkdir(name string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	name = Clean(name)
	if _, ok := o.nodes[name]; ok {
		return &PathError{Op: "mkdir", Path: name, Err: ErrExist}
	}
	if err := o.parentOK(name); err != nil {
		return err
	}
	o.nodes[name] = &objNode{isDir: true, mode: 0o755}
	return nil
}

// MkdirAll creates name and any missing parent markers.
func (o *ObjectFS) MkdirAll(name string) error {
	name = Clean(name)
	if name == "/" {
		return nil
	}
	var build strings.Builder
	for _, part := range strings.Split(strings.TrimPrefix(name, "/"), "/") {
		build.WriteString("/")
		build.WriteString(part)
		p := build.String()
		o.mu.Lock()
		if n, ok := o.nodes[p]; ok {
			isDir := n.isDir
			o.mu.Unlock()
			if !isDir {
				return &PathError{Op: "mkdir", Path: p, Err: ErrNotDir}
			}
			continue
		}
		o.nodes[p] = &objNode{isDir: true, mode: 0o755}
		o.mu.Unlock()
	}
	return nil
}

// Remove deletes an object or an empty directory marker. A pending stale
// window for the key is dropped with it.
func (o *ObjectFS) Remove(name string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	name = Clean(name)
	n, ok := o.nodes[name]
	if !ok {
		return &PathError{Op: "remove", Path: name, Err: ErrNotExist}
	}
	if n.isDir {
		prefix := name + "/"
		if name == "/" {
			prefix = "/"
		}
		for p := range o.nodes {
			if p != name && strings.HasPrefix(p, prefix) {
				return &PathError{Op: "remove", Path: name, Err: ErrDirNotEmpty}
			}
		}
	}
	delete(o.nodes, name)
	delete(o.stale, name)
	return nil
}

// RemoveAll deletes name and every key under it; absent names are not an
// error.
func (o *ObjectFS) RemoveAll(name string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	name = Clean(name)
	if name == "/" {
		o.nodes = map[string]*objNode{"/": {isDir: true, mode: 0o755}}
		o.stale = map[string]*staleObject{}
		return nil
	}
	prefix := name + "/"
	for p := range o.nodes {
		if p == name || strings.HasPrefix(p, prefix) {
			delete(o.nodes, p)
			delete(o.stale, p)
		}
	}
	return nil
}

// Rename rekeys oldName to newName (a prefix rewrite for directories —
// object stores have no rename, so this is the emulated copy-free variant).
func (o *ObjectFS) Rename(oldName, newName string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	oldName, newName = Clean(oldName), Clean(newName)
	n, ok := o.nodes[oldName]
	if !ok {
		return &PathError{Op: "rename", Path: oldName, Err: ErrNotExist}
	}
	if err := o.parentOK(newName); err != nil {
		return err
	}
	if dst, ok := o.nodes[newName]; ok && dst.isDir {
		return &PathError{Op: "rename", Path: newName, Err: ErrIsDir}
	}
	if n.isDir {
		oldPrefix := oldName + "/"
		moves := map[string]string{}
		for p := range o.nodes {
			if strings.HasPrefix(p, oldPrefix) {
				moves[p] = newName + "/" + strings.TrimPrefix(p, oldPrefix)
			}
		}
		for from, to := range moves {
			o.nodes[to] = o.nodes[from]
			delete(o.nodes, from)
		}
	}
	o.nodes[newName] = n
	delete(o.nodes, oldName)
	delete(o.stale, oldName)
	return nil
}

// Stat returns metadata for name (always the current generation; the
// eventual-consistency window applies to Open only, matching stores whose
// LIST/HEAD and GET planes converge at different times).
func (o *ObjectFS) Stat(name string) (FileInfo, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	name = Clean(name)
	n, ok := o.nodes[name]
	if !ok {
		return FileInfo{}, &PathError{Op: "stat", Path: name, Err: ErrNotExist}
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	info := FileInfo{Name: path.Base(name), Mode: n.mode, IsDir: n.isDir}
	if n.ver != nil {
		info.Size = int64(len(n.ver.data))
	}
	return info, nil
}

// ReadDir lists the immediate children of name in sorted order — a prefix
// scan over the key table, delimiter-style.
func (o *ObjectFS) ReadDir(name string) ([]FileInfo, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	name = Clean(name)
	n, ok := o.nodes[name]
	if !ok {
		return nil, &PathError{Op: "readdir", Path: name, Err: ErrNotExist}
	}
	if !n.isDir {
		return nil, &PathError{Op: "readdir", Path: name, Err: ErrNotDir}
	}
	prefix := name + "/"
	if name == "/" {
		prefix = "/"
	}
	var out []FileInfo
	for p, child := range o.nodes {
		if p == name || !strings.HasPrefix(p, prefix) {
			continue
		}
		rest := strings.TrimPrefix(p, prefix)
		if strings.Contains(rest, "/") {
			continue
		}
		child.mu.RLock()
		info := FileInfo{Name: rest, Mode: child.mode, IsDir: child.isDir}
		if child.ver != nil {
			info.Size = int64(len(child.ver.data))
		}
		child.mu.RUnlock()
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Mknod creates an empty object recording the mode and device number.
func (o *ObjectFS) Mknod(name string, mode uint32, dev uint64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	name = Clean(name)
	if _, ok := o.nodes[name]; ok {
		return &PathError{Op: "mknod", Path: name, Err: ErrExist}
	}
	if err := o.parentOK(name); err != nil {
		return err
	}
	o.nodes[name] = &objNode{mode: mode, dev: dev, ver: &memBlock{}}
	return nil
}

// Chmod changes the recorded permission bits of name.
func (o *ObjectFS) Chmod(name string, mode uint32) error {
	o.mu.RLock()
	n, ok := o.nodes[Clean(name)]
	o.mu.RUnlock()
	if !ok {
		return &PathError{Op: "chmod", Path: name, Err: ErrNotExist}
	}
	n.mu.Lock()
	n.mode = mode
	n.mu.Unlock()
	return nil
}

// Truncate resizes name — a whole-object rewrite like any other mutation.
func (o *ObjectFS) Truncate(name string, size int64) error {
	o.mu.RLock()
	n, ok := o.nodes[Clean(name)]
	o.mu.RUnlock()
	if !ok {
		return &PathError{Op: "truncate", Path: name, Err: ErrNotExist}
	}
	if n.isDir {
		return &PathError{Op: "truncate", Path: name, Err: ErrIsDir}
	}
	if size < 0 {
		return errNegativeTruncate
	}
	objTarget{o, n}.truncate(size)
	return nil
}

// own gives the node a private, mutable version, paying the whole-object
// copy when the current one is sealed (shared with a clone or a stale
// reader). Caller holds n.mu for writing.
func (n *objNode) own() *memBlock {
	if n.ver.sealed.Load() {
		n.ver = &memBlock{data: append([]byte(nil), n.ver.data...)}
	}
	return n.ver
}

// resize grows (zero-filling) or shrinks the object to size. A sealed
// version is replaced by one allocation at the new size; a private one grows
// its capacity geometrically, so a sequential append copies the object
// O(log) times, not once per write. Caller holds n.mu for writing.
func (n *objNode) resize(size int64) {
	switch v, cur := n.ver, len(n.ver.data); {
	case v.sealed.Load():
		data := make([]byte, size)
		copy(data, v.data)
		n.ver = &memBlock{data: data}
	case size <= int64(cap(v.data)):
		v.data = v.data[:size]
		if int(size) > cur {
			clear(v.data[cur:])
		}
	default:
		data := make([]byte, size, max(size, 2*int64(cap(v.data))))
		copy(data, v.data)
		v.data = data
	}
}

// write patches p into the object at off and commits the result as the new
// whole-object generation. Caller holds n.mu for writing; the caller's fs
// pointer takes the amplification charge.
func (n *objNode) write(fs *ObjectFS, p []byte, off int64) {
	if end := off + int64(len(p)); end > int64(len(n.ver.data)) {
		n.resize(end)
	} else {
		n.own()
	}
	copy(n.ver.data[off:], p)
	fs.rewritten.Add(int64(len(n.ver.data)))
}

// readAt copies object content at off into p. Caller holds n.mu for
// reading.
func (n *objNode) readAt(p []byte, off int64) (int, error) {
	size := int64(len(n.ver.data))
	if off >= size {
		return 0, io.EOF
	}
	nc := copy(p, n.ver.data[off:])
	if nc < len(p) {
		return nc, io.EOF
	}
	return nc, nil
}

// Clone returns a copy-on-write snapshot: the key table is copied, every
// object version is sealed and shared, and the first write on either side
// replaces the touched object wholesale. Divergence therefore costs
// O(objects written) full objects — the amplification that distinguishes
// this backend from MemFS's O(extents written). Pending eventual-
// consistency windows are carried over (counters copied, superseded data
// shared) so a cloned world replays the same anomaly sequence a rebuilt
// one would.
func (o *ObjectFS) Clone() *ObjectFS {
	o.mu.RLock()
	defer o.mu.RUnlock()
	nodes := make(map[string]*objNode, len(o.nodes))
	for p, n := range o.nodes {
		n.mu.Lock()
		cp := &objNode{mode: n.mode, isDir: n.isDir, dev: n.dev}
		if n.ver != nil {
			n.ver.seal()
			cp.ver = n.ver
		}
		nodes[p] = cp
		n.mu.Unlock()
	}
	stale := make(map[string]*staleObject, len(o.stale))
	for p, s := range o.stale {
		cp := *s
		stale[p] = &cp
	}
	return &ObjectFS{nodes: nodes, lag: o.lag, stale: stale}
}

// CloneFS implements Cloner.
func (o *ObjectFS) CloneFS() (FS, error) { return o.Clone(), nil }

var (
	_ FS                 = (*ObjectFS)(nil)
	_ Cloner             = (*ObjectFS)(nil)
	_ CapabilityReporter = (*ObjectFS)(nil)
)
