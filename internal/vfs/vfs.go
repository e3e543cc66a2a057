// Package vfs defines the file-system boundary that FFIS instruments.
//
// In the paper, FFIS interposes on the FUSE callback layer: applications
// issue POSIX calls, the kernel routes them to the user-space handlers, and
// the fault injector corrupts the arguments on their way to the backing
// store. This package is the Go equivalent of that boundary: an FS interface
// with FUSE-shaped primitives, an in-memory implementation (MemFS) standing
// in for the backing device, and wrapper implementations (core.InjectorFS in
// package core, which injects when armed and profiles when disarmed)
// standing in for the FFIS instrumentation inserted between the application
// and the store.
//
// Where the paper has a single FFISFS mount point over one device, MountFS
// generalizes the boundary to tiered storage: a Unix-style mount table
// routes each path to the backend owning the longest matching segment
// prefix, and WithInterposed layers instrumentation over exactly one mount.
// That is the injection-routing contract used by core's
// CampaignConfig.ArmMounts — a fault signature armed on the burst-buffer
// tier corrupts only the I/O routed there, while every other tier stays
// clean.
//
// Everything the applications in internal/apps do to persistent state flows
// through this interface, exactly as the paper requires transparency (R1)
// and convenience (R2): applications never know whether they run on a bare
// MemFS, a disarmed (profiling) or armed fault injector, or a mount table
// dispatching to several of each.
package vfs

import (
	"errors"
	"io"
	iofs "io/fs"
	"path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Sentinel errors. ErrNotExist and ErrExist alias the stdlib io/fs errors so
// callers can use errors.Is with either spelling.
var (
	ErrNotExist    = iofs.ErrNotExist
	ErrExist       = iofs.ErrExist
	ErrIsDir       = errors.New("vfs: is a directory")
	ErrNotDir      = errors.New("vfs: not a directory")
	ErrClosed      = errors.New("vfs: file already closed")
	ErrReadOnly    = errors.New("vfs: file opened read-only")
	ErrDirNotEmpty = errors.New("vfs: directory not empty")
	// ErrUnreadable is the EIO a device returns for an uncorrectable sector:
	// the read fails, the data is not delivered, and retrying does not help.
	// core's UnreadableSector fault model surfaces it through the armed read
	// path; applications test for it with errors.Is like the other sentinels.
	ErrUnreadable = errors.New("vfs: unreadable sector (EIO)")
	// ErrDeviceFailed is the EIO of a device that dropped off the bus
	// entirely: from some operation onward every read and write fails.
	// core's DeviceFailure fault model surfaces it on the armed mount.
	ErrDeviceFailed = errors.New("vfs: device failed (EIO)")
	// ErrReleased fails every operation on a released world (Release) and
	// on its open handles: the world's blocks may already hold another
	// run's bytes, so it must not read as an empty tree either.
	ErrReleased = errors.New("vfs: world released")
)

// FileInfo describes a file or directory.
type FileInfo struct {
	Name  string // base name
	Size  int64  // content length in bytes (0 for directories)
	IsDir bool
}

// File is an open file handle. ReadAt/WriteAt mirror pread/pwrite — the
// primitives the paper's FFIS_write instrumentation feeds — while
// Read/Write/Seek provide the sequential interface applications typically
// use. Implementations must allow concurrent calls on distinct handles.
type File interface {
	// Name returns the cleaned absolute path this handle was opened with.
	Name() string
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// ReadAt is pread(2): it does not move the sequential offset.
	ReadAt(p []byte, off int64) (int, error)
	// WriteAt is pwrite(2): it does not move the sequential offset.
	WriteAt(p []byte, off int64) (int, error)
	// Size reports the current content length.
	Size() (int64, error)
	// Sync flushes buffered state. MemFS is always durable, so this is a
	// no-op there, but the interface keeps applications honest about where
	// their durability points are — the same points FFIS targets.
	Sync() error
}

// FS is the FUSE-shaped primitive set FFIS interposes on: the file and
// directory operations the programs here issue. Table I also names mknod
// and chmod callbacks; no program calls them, so FS has neither. The
// module's reachability test keeps it so: it fails on an FS or File
// method that no program calls.
type FS interface {
	Create(name string) (File, error)        // open for write, truncating
	Open(name string) (File, error)          // open read-only
	Append(name string) (File, error)        // open for write at end, creating
	MkdirAll(name string) error              // create a directory tree
	Remove(name string) error                // unlink a file or empty dir
	Rename(oldName, newName string) error    // atomic rename
	Stat(name string) (FileInfo, error)      // metadata lookup
	ReadDir(name string) ([]FileInfo, error) // sorted directory listing
	Truncate(name string, size int64) error  // resize a file
}

// Clean normalizes a path to the canonical rooted slash form used as map
// keys by MemFS and by the wrappers' accounting.
func Clean(name string) string {
	if name == "" {
		return "/"
	}
	if !strings.HasPrefix(name, "/") {
		name = "/" + name
	}
	return path.Clean(name)
}

// ReadFile reads the whole content of name.
func ReadFile(fsys FS, name string) ([]byte, error) { return ReadInto(fsys, name, nil) }

// ReadInto reads the whole content of name with one Open, one Size and one
// full read, into buf's storage when its capacity suffices and into a new
// slice otherwise.
func ReadInto(fsys FS, name string, buf []byte) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	if int64(cap(buf)) < size {
		buf = make([]byte, size)
	}
	n, err := io.ReadFull(f, buf[:size])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	return buf[:n], nil
}

// WriteFile writes data to name, creating or truncating it.
func WriteFile(fsys FS, name string, data []byte) error {
	f, err := fsys.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Exists reports whether name exists in fsys.
func Exists(fsys FS, name string) bool {
	_, err := fsys.Stat(name)
	return err == nil
}

// Walk calls fn for every file (not directory) under root, in sorted path
// order. Tests in several packages use it to read a file tree for golden
// comparison.
func Walk(fsys FS, root string, fn func(p string, info FileInfo) error) error {
	infos, err := fsys.ReadDir(root)
	if err != nil {
		return err
	}
	root = Clean(root)
	for _, info := range infos {
		child := path.Join(root, info.Name)
		if info.IsDir {
			if err := Walk(fsys, child, fn); err != nil {
				return err
			}
			continue
		}
		if err := fn(child, info); err != nil {
			return err
		}
	}
	return nil
}

// BlockSize is the extent granularity of MemFS file storage: content is
// held as a table of fixed-size blocks, and copy-on-write after a Clone
// operates per block. 64 KiB matches the transfer sizes of the paper's
// workloads closely enough that a first write after a clone touches one or
// two blocks, never the whole file.
const BlockSize = 64 << 10

// memBlock is one sealable extent of file content, in MemFS and in the
// MemFS an ObjectFS keeps its objects in. data holds the materialized
// bytes of the block (len(data) <= BlockSize); logical bytes past
// len(data) — and entire nil table entries — read as zero, so sparse
// regions and truncate-grown tails cost nothing until written.
//
// sealed marks the block immutable: Clone seals every block of every node
// it snapshots, after which the block may be referenced from any number of
// trees and its bytes must never change again. A writer that lands on a
// sealed block copies it into a fresh private block first (see
// memNode.ownBlock) — the per-extent copy-before-write that replaced the
// old whole-file ensureOwned. Sealing is monotonic (false→true once,
// never cleared), so concurrent readers in other trees can check it with
// a plain atomic load while holding only their own node's lock.
type memBlock struct {
	sealed atomic.Bool
	data   []byte
}

// memNode is a single entry (file or directory) in a MemFS tree. File
// content is size plus a block table; the table slice is private to the
// node (Clone copies it), while the blocks it points at may be sealed and
// shared across trees.
type memNode struct {
	mu     sync.RWMutex
	size   int64
	blocks []*memBlock
	isDir  bool
	// cloned is set by Clone and cleared by every write, truncate and
	// rename that reaches the node (see Unchanged).
	cloned bool
}

// blockCount returns how many table entries a file of the given size needs.
func blockCount(size int64) int {
	return int((size + BlockSize - 1) / BlockSize)
}

// blockLen returns the valid in-block length of block bi under the node's
// current size: BlockSize for interior blocks, the remainder for the tail.
// Caller holds n.mu.
func (n *memNode) blockLen(bi int) int {
	l := n.size - int64(bi)*BlockSize
	if l > BlockSize {
		l = BlockSize
	}
	return int(l)
}

// readAt copies content at off into p, zero-filling holes (nil blocks and
// bytes past a block's materialized prefix). Caller holds n.mu for reading.
func (n *memNode) readAt(p []byte, off int64) (int, error) {
	if off >= n.size {
		return 0, io.EOF
	}
	total := 0
	for total < len(p) && off < n.size {
		bi := int(off / BlockSize)
		bo := int(off % BlockSize)
		want := n.blockLen(bi) - bo
		if rem := len(p) - total; want > rem {
			want = rem
		}
		dst := p[total : total+want]
		copied := 0
		if b := n.blocks[bi]; b != nil && bo < len(b.data) {
			copied = copy(dst, b.data[bo:])
		}
		clear(dst[copied:])
		total += want
		off += int64(want)
	}
	if total < len(p) {
		return total, io.EOF
	}
	return total, nil
}

// write copies p into the node at off, growing the file as needed. Only
// the blocks the write actually touches are materialized or copied, so the
// first write after a Clone costs O(touched extents), not O(file size).
// Blocks come from list when the world is attached to one (nil allocates).
// Caller holds n.mu for writing.
func (n *memNode) write(p []byte, off int64, list *BlockList) {
	n.cloned = false
	if end := off + int64(len(p)); end > n.size {
		n.grow(end)
	}
	for len(p) > 0 {
		bi := int(off / BlockSize)
		bo := int(off % BlockSize)
		nc := copy(n.ownBlock(bi, list)[bo:], p)
		p = p[nc:]
		off += int64(nc)
	}
}

// ownBlock returns block bi's bytes, private to this node and materialized
// to the block's full valid length: zero extents are allocated, sealed
// (clone-shared) blocks are copied, and an owned block whose materialized
// prefix is shorter than the file now requires is extended with zeros.
// With a list every new buffer has capacity BlockSize, so Release can
// recycle every block the node owns. Caller holds n.mu for writing.
func (n *memNode) ownBlock(bi int, list *BlockList) []byte {
	bl := n.blockLen(bi)
	b := n.blocks[bi]
	switch {
	case b == nil:
		b = &memBlock{data: list.alloc(nil, bl, bl)}
		n.blocks[bi] = b
	case b.sealed.Load():
		b = &memBlock{data: list.alloc(b.data, bl, bl)}
		n.blocks[bi] = b
	case len(b.data) < bl:
		if cap(b.data) >= bl {
			// Reslicing may expose bytes left over from before a shrink;
			// the logical content there is zero, so clear them.
			old := len(b.data)
			b.data = b.data[:bl]
			clear(b.data[old:])
		} else {
			// Grow geometrically (up to BlockSize) so a sequential append
			// copies the tail O(log) times, not once per write.
			b.data = list.alloc(b.data, bl, max(bl, min(2*cap(b.data), BlockSize)))
		}
	}
	return b.data
}

// snapshot returns a copy of the node that shares its blocks, sealing
// them first: Clone's per-node copy and ObjectFS's superseded object.
// Caller holds n.mu for writing.
func (n *memNode) snapshot() *memNode {
	for _, b := range n.blocks {
		if b != nil {
			b.seal()
		}
	}
	return &memNode{
		size:   n.size,
		blocks: append([]*memBlock(nil), n.blocks...),
		isDir:  n.isDir,
	}
}

// seal makes b immutable. The first seal clips the spare capacity left by
// geometric growth, so a snapshot holds exactly its bytes. An unsealed
// block belongs to one node, whose lock the caller holds, so no other tree
// can observe the swap.
func (b *memBlock) seal() {
	if !b.sealed.Load() {
		if cap(b.data) > len(b.data) {
			b.data = append(make([]byte, 0, len(b.data)), b.data...)
		}
		b.sealed.Store(true)
	}
}

// moved clears the clone flag of a node that now answers to another path.
func (n *memNode) moved() *memNode {
	n.mu.Lock()
	n.cloned = false
	n.mu.Unlock()
	return n
}

// grow extends the file to size without materializing anything: new table
// entries are nil (all-zero) extents. Caller holds n.mu for writing.
func (n *memNode) grow(size int64) {
	n.size = size
	for nb := blockCount(size); len(n.blocks) < nb; {
		n.blocks = append(n.blocks, nil)
	}
}

// truncate resizes the node. Shrinking drops whole blocks past the new end
// and trims the new tail block — copying it when sealed, since a shared
// block's bytes (including its slice header) must never change; growing is
// the zero-materialization grow path. Caller holds n.mu for writing.
func (n *memNode) truncate(size int64) {
	n.cloned = false
	switch {
	case size < n.size:
		n.blocks = n.blocks[:blockCount(size)]
		n.size = size
		if len(n.blocks) == 0 {
			return
		}
		bi := len(n.blocks) - 1
		b := n.blocks[bi]
		bl := n.blockLen(bi)
		if b == nil || len(b.data) <= bl {
			return
		}
		if b.sealed.Load() {
			data := make([]byte, bl)
			copy(data, b.data)
			n.blocks[bi] = &memBlock{data: data}
		} else {
			b.data = b.data[:bl]
		}
	case size > n.size:
		n.grow(size)
	}
}

// MemFS is a thread-safe, in-memory file system. It stands in for the
// "underline file system + SSD" below FFIS: bytes written here are what the
// application later reads back, so corrupting a write corrupts the durable
// state exactly once, with no caching layer to mask it.
//
// The zero value is not usable; call NewMemFS.
type MemFS struct {
	mu       sync.RWMutex
	nodes    map[string]*memNode
	list     *BlockList // set by Attach
	released atomic.Bool
}

// NewMemFS returns an empty file system containing only the root directory.
func NewMemFS() *MemFS {
	return &MemFS{nodes: map[string]*memNode{
		"/": {isDir: true},
	}}
}

// notExist reports a name the tree does not hold. A released world holds
// no names at all, so there it reports ErrReleased instead: every MemFS
// operation on a released world fails loudly through this miss (MkdirAll,
// which succeeds on a miss, checks for itself).
func (m *MemFS) notExist(op, name string) error {
	err := ErrNotExist
	if m.released.Load() {
		err = ErrReleased
	}
	return &PathError{Op: op, Path: name, Err: err}
}

func (m *MemFS) lookup(name string) (*memNode, bool) {
	n, ok := m.nodes[Clean(name)]
	return n, ok
}

// parentOK reports whether the parent of name exists and is a directory.
func (m *MemFS) parentOK(name string) error {
	dir := path.Dir(Clean(name))
	n, ok := m.nodes[dir]
	if !ok {
		return m.notExist("open", name)
	}
	if !n.isDir {
		return &PathError{Op: "open", Path: name, Err: ErrNotDir}
	}
	return nil
}

// dirPrefix is the key prefix every entry under the directory name shares.
func dirPrefix(name string) string {
	if name == "/" {
		return "/"
	}
	return name + "/"
}

// PathError mirrors os.PathError for this virtual layer.
type PathError struct {
	Op   string
	Path string
	Err  error
}

func (e *PathError) Error() string { return "vfs " + e.Op + " " + e.Path + ": " + e.Err.Error() }
func (e *PathError) Unwrap() error { return e.Err }

// Create opens name for writing, creating or truncating it.
func (m *MemFS) Create(name string) (File, error) {
	name = Clean(name)
	n, _, err := m.create(name, false)
	if err != nil {
		return nil, err
	}
	return &handle{node: memTarget{m, n}, name: name, writable: true}, nil
}

// create returns the node of the cleaned name, made empty or new. With
// keep, a non-empty file's content is first taken as old, a sealed
// snapshot.
func (m *MemFS) create(name string, keep bool) (n, old *memNode, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.parentOK(name); err != nil {
		return nil, nil, err
	}
	n, ok := m.nodes[name]
	if !ok {
		n = &memNode{}
		m.nodes[name] = n
		return n, nil, nil
	}
	if n.isDir {
		return nil, nil, &PathError{Op: "create", Path: name, Err: ErrIsDir}
	}
	n.mu.Lock()
	if keep && n.size > 0 {
		old = n.snapshot()
	}
	// Truncating to zero never needs the old bytes: drop the block
	// table outright (sealed blocks are simply dereferenced).
	n.size, n.blocks, n.cloned = 0, nil, false
	n.mu.Unlock()
	return n, old, nil
}

// Open opens name read-only.
func (m *MemFS) Open(name string) (File, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	name = Clean(name)
	n, ok := m.nodes[name]
	if !ok {
		return nil, m.notExist("open", name)
	}
	if n.isDir {
		return nil, &PathError{Op: "open", Path: name, Err: ErrIsDir}
	}
	return &handle{node: memTarget{m, n}, name: name, writable: false}, nil
}

// Append opens name for writing with the offset at end-of-file, creating the
// file if needed.
func (m *MemFS) Append(name string) (File, error) {
	name = Clean(name)
	n, off, err := m.appendNode(name)
	if err != nil {
		return nil, err
	}
	return &handle{node: memTarget{m, n}, name: name, writable: true, off: off}, nil
}

// appendNode returns the node of the cleaned name, made when missing, and
// its size.
func (m *MemFS) appendNode(name string) (*memNode, int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.parentOK(name); err != nil {
		return nil, 0, err
	}
	n, ok := m.nodes[name]
	if !ok {
		n = &memNode{}
		m.nodes[name] = n
	} else if n.isDir {
		return nil, 0, &PathError{Op: "append", Path: name, Err: ErrIsDir}
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n, n.size, nil
}

// MkdirAll creates name and any missing parents.
func (m *MemFS) MkdirAll(name string) error {
	if m.released.Load() {
		return &PathError{Op: "mkdir", Path: name, Err: ErrReleased}
	}
	name = Clean(name)
	if name == "/" {
		return nil
	}
	var build strings.Builder
	for _, part := range strings.Split(strings.TrimPrefix(name, "/"), "/") {
		build.WriteString("/")
		build.WriteString(part)
		p := build.String()
		m.mu.Lock()
		if n, ok := m.nodes[p]; ok {
			isDir := n.isDir
			m.mu.Unlock()
			if !isDir {
				return &PathError{Op: "mkdir", Path: p, Err: ErrNotDir}
			}
			continue
		}
		m.nodes[p] = &memNode{isDir: true}
		m.mu.Unlock()
	}
	return nil
}

// Remove unlinks a file or an empty directory.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	name = Clean(name)
	n, ok := m.nodes[name]
	if !ok {
		return m.notExist("remove", name)
	}
	if n.isDir {
		prefix := dirPrefix(name)
		for p := range m.nodes {
			if p != name && strings.HasPrefix(p, prefix) {
				return &PathError{Op: "remove", Path: name, Err: ErrDirNotEmpty}
			}
		}
	}
	delete(m.nodes, name)
	return nil
}

// Rename atomically moves oldName to newName (and any children when renaming
// a directory). Renaming a path onto itself changes nothing, and a
// directory cannot move into its own subtree.
func (m *MemFS) Rename(oldName, newName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	oldName, newName = Clean(oldName), Clean(newName)
	n, ok := m.nodes[oldName]
	if !ok {
		return m.notExist("rename", oldName)
	}
	if oldName == newName {
		return nil
	}
	if n.isDir && strings.HasPrefix(newName, dirPrefix(oldName)) {
		return &PathError{Op: "rename", Path: newName, Err: iofs.ErrInvalid}
	}
	if err := m.parentOK(newName); err != nil {
		return err
	}
	if dst, ok := m.nodes[newName]; ok && dst.isDir {
		return &PathError{Op: "rename", Path: newName, Err: ErrIsDir}
	}
	if n.isDir {
		oldPrefix := oldName + "/"
		moves := map[string]string{}
		for p := range m.nodes {
			if strings.HasPrefix(p, oldPrefix) {
				moves[p] = newName + "/" + strings.TrimPrefix(p, oldPrefix)
			}
		}
		for from, to := range moves {
			m.nodes[to] = m.nodes[from].moved()
			delete(m.nodes, from)
		}
	}
	m.nodes[newName] = n.moved()
	delete(m.nodes, oldName)
	return nil
}

// Stat returns metadata for name.
func (m *MemFS) Stat(name string) (FileInfo, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	name = Clean(name)
	n, ok := m.nodes[name]
	if !ok {
		return FileInfo{}, m.notExist("stat", name)
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	return FileInfo{
		Name:  path.Base(name),
		Size:  n.size,
		IsDir: n.isDir,
	}, nil
}

// ReadDir lists the immediate children of name in sorted order.
func (m *MemFS) ReadDir(name string) ([]FileInfo, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	name = Clean(name)
	n, ok := m.nodes[name]
	if !ok {
		return nil, m.notExist("readdir", name)
	}
	if !n.isDir {
		return nil, &PathError{Op: "readdir", Path: name, Err: ErrNotDir}
	}
	prefix := dirPrefix(name)
	var out []FileInfo
	for p, child := range m.nodes {
		if p == name || !strings.HasPrefix(p, prefix) {
			continue
		}
		rest := strings.TrimPrefix(p, prefix)
		if strings.Contains(rest, "/") {
			continue // not an immediate child
		}
		child.mu.RLock()
		out = append(out, FileInfo{
			Name:  rest,
			Size:  child.size,
			IsDir: child.isDir,
		})
		child.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Truncate resizes name to size bytes, zero-filling when growing.
func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.RLock()
	n, ok := m.lookup(name)
	m.mu.RUnlock()
	if !ok {
		return m.notExist("truncate", name)
	}
	if n.isDir {
		return &PathError{Op: "truncate", Path: name, Err: ErrIsDir}
	}
	if size < 0 {
		return errors.New("vfs: negative truncate size")
	}
	n.mu.Lock()
	n.truncate(size)
	n.mu.Unlock()
	return nil
}

var _ FS = (*MemFS)(nil)
