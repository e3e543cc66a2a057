package vfs

import "sync"

// BlockList is a free list of MemFS block buffers, each of capacity
// BlockSize. A world attached to it draws every block it writes from the
// list and returns the blocks it owns when it is released, so a sequence
// of runs on clones of one snapshot allocates blocks for its peak, not for
// every run. Safe for concurrent use; the zero value is an empty list.
type BlockList struct {
	mu   sync.Mutex
	free [][]byte
}

// alloc returns a buffer of length n holding src, zero-extended. A nil
// list allocates one of capacity c; a list hands out a buffer of capacity
// BlockSize, recycled when it has one.
func (l *BlockList) alloc(src []byte, n, c int) []byte {
	var data []byte
	if l != nil {
		c = BlockSize
		l.mu.Lock()
		if k := len(l.free) - 1; k >= 0 {
			data = l.free[k][:n]
			l.free[k], l.free = nil, l.free[:k]
		}
		l.mu.Unlock()
	}
	if data == nil {
		data = make([]byte, n, c)
		copy(data, src)
		return data
	}
	clear(data[copy(data, src):])
	return data
}

// poisonReleased makes put fill each returned buffer with poisonByte. It is
// on in race-detector builds (poison_race.go), which is how the test
// suites prove that nothing reads a block after its world was released.
var poisonReleased bool

const poisonByte = 0xA5

func (l *BlockList) put(data []byte) {
	data = data[:cap(data)]
	if poisonReleased {
		data[0] = poisonByte
		for i := 1; i < len(data); i *= 2 {
			copy(data[i:], data[:i])
		}
	}
	l.mu.Lock()
	l.free = append(l.free, data)
	l.mu.Unlock()
}

// Recycler is implemented by worlds whose blocks can be recycled: Attach
// makes the world draw the blocks it writes from l, and Release ends it,
// returning its owned blocks to l; every later operation on the world or
// its open handles fails with ErrReleased. MemFS implements it; MountFS
// and LatencyFS forward both calls to their backends.
type Recycler interface {
	Attach(l *BlockList)
	Release()
}

// Attach attaches fs to l when fs is a Recycler; a no-op otherwise.
func Attach(fs FS, l *BlockList) {
	if r, ok := fs.(Recycler); ok {
		r.Attach(l)
	}
}

// Release releases fs when it is a Recycler; a no-op otherwise.
func Release(fs FS) {
	if r, ok := fs.(Recycler); ok {
		r.Release()
	}
}

// Attach implements Recycler. Call it on a fresh clone, before any handle
// is opened.
func (m *MemFS) Attach(l *BlockList) { m.list = l }

// Release implements Recycler. Owned blocks go back to the attached list;
// sealed blocks are shared with the trees this world was cloned from or
// into, so they are only dereferenced.
func (m *MemFS) Release() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.released.Store(true)
	for _, n := range m.nodes {
		n.mu.Lock()
		for _, b := range n.blocks {
			if m.list != nil && b != nil && !b.sealed.Load() && cap(b.data) == BlockSize {
				m.list.put(b.data)
			}
		}
		n.size, n.blocks, n.cloned = 0, nil, false
		n.mu.Unlock()
	}
	m.nodes = nil
}

// Attach implements Recycler for every backend that recycles.
func (m *MountFS) Attach(l *BlockList) { m.backends(func(fs FS) { Attach(fs, l) }) }

// Release implements Recycler for every backend that recycles.
func (m *MountFS) Release() { m.backends(Release) }

// Attach implements Recycler for the inner backend.
func (l *LatencyFS) Attach(b *BlockList) { Attach(l.inner, b) }

// Release implements Recycler for the inner backend.
func (l *LatencyFS) Release() { Release(l.inner) }
