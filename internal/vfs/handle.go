package vfs

import (
	"errors"
	"io"
	"sync"
)

var errNegativeTruncate = errors.New("vfs: negative truncate size")

// fileNode is the storage an open handle addresses: a MemFS node
// (memTarget) or an ObjectFS object (objTarget). Each method takes the
// node's own lock.
type fileNode interface {
	readAt(p []byte, off int64) (int, error)
	writeAt(p []byte, off int64)
	truncate(size int64)
	size() int64
	// live fails handle I/O once the handle's world is released.
	live() error
}

// handle is an open file of MemFS or ObjectFS; the backends differ only
// in the fileNode it addresses.
//
// The handle lock is an RWMutex so the closed check and the I/O it guards
// are one critical section: positional operations (ReadAt/WriteAt/Size/
// Truncate/Sync) hold the read side across the whole call — they can still
// run concurrently with each other, as pread/pwrite allow — while Close
// takes the write side, so it cannot slip between a handle's closed check
// and the node access (the old check-release-then-touch sequence let I/O
// on a closed handle succeed). Once Close returns, no in-flight operation
// on the handle is still touching the node and every later one fails with
// ErrClosed. Sequential Read/Write/Seek take the write side because they
// move off.
type handle struct {
	name     string
	node     fileNode
	writable bool

	mu     sync.RWMutex // guards off and closed; see type comment
	off    int64
	closed bool
}

func (f *handle) Name() string { return f.name }

// check fails an operation on a closed handle or a released world. Caller
// holds f.mu.
func (f *handle) check() error {
	if f.closed {
		return ErrClosed
	}
	return f.node.live()
}

func (f *handle) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	n, err := f.readAt(p, f.off)
	f.off += int64(n)
	return n, err
}

func (f *handle) ReadAt(p []byte, off int64) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	return f.readAt(p, off)
}

func (f *handle) readAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("vfs: negative read offset")
	}
	return f.node.readAt(p, off)
}

func (f *handle) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	n, err := f.writeAt(p, f.off)
	f.off += int64(n)
	return n, err
}

func (f *handle) WriteAt(p []byte, off int64) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	return f.writeAt(p, off)
}

func (f *handle) writeAt(p []byte, off int64) (int, error) {
	if !f.writable {
		return 0, ErrReadOnly
	}
	if off < 0 {
		return 0, errors.New("vfs: negative write offset")
	}
	f.node.writeAt(p, off)
	return len(p), nil
}

func (f *handle) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = f.off
	case io.SeekEnd:
		base = f.node.size()
	default:
		return 0, errors.New("vfs: bad seek whence")
	}
	pos := base + offset
	if pos < 0 {
		return 0, errors.New("vfs: negative seek position")
	}
	f.off = pos
	return pos, nil
}

func (f *handle) Truncate(size int64) error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if err := f.check(); err != nil {
		return err
	}
	if !f.writable {
		return ErrReadOnly
	}
	if size < 0 {
		return errNegativeTruncate
	}
	f.node.truncate(size)
	return nil
}

func (f *handle) Size() (int64, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if err := f.check(); err != nil {
		return 0, err
	}
	return f.node.size(), nil
}

func (f *handle) Sync() error {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.check()
}

func (f *handle) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.check(); err != nil {
		return err
	}
	f.closed = true
	return nil
}

// memTarget addresses a MemFS node; writes draw blocks from the list its
// world is attached to.
type memTarget struct {
	fs *MemFS
	n  *memNode
}

func (t memTarget) readAt(p []byte, off int64) (int, error) {
	t.n.mu.RLock()
	defer t.n.mu.RUnlock()
	return t.n.readAt(p, off)
}

func (t memTarget) writeAt(p []byte, off int64) {
	t.n.mu.Lock()
	defer t.n.mu.Unlock()
	t.n.write(p, off, t.fs.list)
}

func (t memTarget) truncate(size int64) {
	t.n.mu.Lock()
	defer t.n.mu.Unlock()
	t.n.truncate(size)
}

func (t memTarget) size() int64 {
	t.n.mu.RLock()
	defer t.n.mu.RUnlock()
	return t.n.size
}

func (t memTarget) live() error {
	if t.fs.released.Load() {
		return ErrReleased
	}
	return nil
}

// objTarget addresses an ObjectFS object; writes and truncates charge the
// whole-object rewrite to the backend's amplification counter.
type objTarget struct {
	fs *ObjectFS
	n  *objNode
}

func (t objTarget) readAt(p []byte, off int64) (int, error) {
	t.n.mu.RLock()
	defer t.n.mu.RUnlock()
	return t.n.readAt(p, off)
}

func (t objTarget) writeAt(p []byte, off int64) {
	t.n.mu.Lock()
	defer t.n.mu.Unlock()
	t.n.write(t.fs, p, off)
}

func (t objTarget) truncate(size int64) {
	t.n.mu.Lock()
	defer t.n.mu.Unlock()
	t.n.resize(size)
	t.fs.rewritten.Add(size)
}

func (t objTarget) size() int64 {
	t.n.mu.RLock()
	defer t.n.mu.RUnlock()
	return int64(len(t.n.ver.data))
}

func (objTarget) live() error { return nil }

var _ File = (*handle)(nil)
