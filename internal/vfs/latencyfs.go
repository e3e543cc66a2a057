package vfs

import (
	"sync/atomic"
	"time"
)

// CostModel prices the I/O of one storage tier for LatencyFS. Costs are
// charged to a simulated clock, never slept: a per-operation latency by
// class plus a bandwidth term proportional to the bytes moved. Zero
// bytes-per-second means infinite bandwidth (no byte term).
type CostModel struct {
	// ReadLatency is charged per read-class data operation (Read, ReadAt).
	ReadLatency time.Duration
	// WriteLatency is charged per write-class data operation (Write,
	// WriteAt, Truncate).
	WriteLatency time.Duration
	// MetaLatency is charged per namespace or metadata operation (Create,
	// Open, Append, MkdirAll, Remove, Rename, Stat, ReadDir).
	MetaLatency time.Duration
	// ReadBytesPerSec and WriteBytesPerSec are the tier's bandwidth
	// budgets; each data operation additionally charges bytes/rate.
	ReadBytesPerSec  int64
	WriteBytesPerSec int64
}

// Canonical tier models for the burst-buffer-vs-PFS placement sweeps. The
// constants are plausible campaign-scale magnitudes, not measurements: what
// matters for the experiments is the ratio between tiers and that the
// numbers are deterministic.
var (
	// BurstBufferModel approximates a node-local NVMe burst buffer:
	// microsecond operations, multi-GiB/s streams.
	BurstBufferModel = CostModel{
		ReadLatency:      10 * time.Microsecond,
		WriteLatency:     20 * time.Microsecond,
		MetaLatency:      5 * time.Microsecond,
		ReadBytesPerSec:  8 << 30,
		WriteBytesPerSec: 4 << 30,
	}
	// ParallelFSModel approximates a shared parallel file system
	// (Lustre-class): high per-operation latency dominated by RPCs,
	// respectable streaming bandwidth.
	ParallelFSModel = CostModel{
		ReadLatency:      500 * time.Microsecond,
		WriteLatency:     800 * time.Microsecond,
		MetaLatency:      1 * time.Millisecond,
		ReadBytesPerSec:  2 << 30,
		WriteBytesPerSec: 1 << 30,
	}
)

// readCost prices a read of n bytes.
func (c CostModel) readCost(n int) int64 {
	ns := int64(c.ReadLatency)
	if c.ReadBytesPerSec > 0 {
		ns += int64(n) * int64(time.Second) / c.ReadBytesPerSec
	}
	return ns
}

// writeCost prices a write of n bytes.
func (c CostModel) writeCost(n int) int64 {
	ns := int64(c.WriteLatency)
	if c.WriteBytesPerSec > 0 {
		ns += int64(n) * int64(time.Second) / c.WriteBytesPerSec
	}
	return ns
}

// LatencyFS wraps a backend and charges every operation against a
// deterministic simulated clock, so placement sweeps produce *time*
// results — "this campaign moved X bytes over a PFS-class tier and would
// have taken T" — without sleeping. Charges are commutative atomic
// additions: the accumulated total depends only on the set of operations
// performed, not on goroutine interleaving or worker count, which is what
// keeps the campaign determinism harness green over latency-modeled
// worlds.
//
// CloneFS clones the inner backend (which must support it) and gives the
// clone a fresh clock, so a run on a clone of a post-Setup world measures
// only its own I/O.
type LatencyFS struct {
	inner FS
	cost  CostModel
	ns    *atomic.Int64
}

// NewLatencyFS wraps inner with the given cost model.
func NewLatencyFS(inner FS, cost CostModel) *LatencyFS {
	return &LatencyFS{inner: inner, cost: cost, ns: new(atomic.Int64)}
}

// SimElapsed implements SimClocked.
func (l *LatencyFS) SimElapsed() time.Duration { return time.Duration(l.ns.Load()) }

// CloneFS implements Cloner when the inner backend does: the clone shares
// the cost model, snapshots the inner state, and starts a fresh clock.
func (l *LatencyFS) CloneFS() (FS, error) {
	c, ok := l.inner.(Cloner)
	if !ok {
		return nil, ErrNotClonable
	}
	inner, err := c.CloneFS()
	if err != nil {
		return nil, err
	}
	return NewLatencyFS(inner, l.cost), nil
}

func (l *LatencyFS) meta()       { l.ns.Add(int64(l.cost.MetaLatency)) }
func (l *LatencyFS) read(n int)  { l.ns.Add(l.cost.readCost(n)) }
func (l *LatencyFS) write(n int) { l.ns.Add(l.cost.writeCost(n)) }

func (l *LatencyFS) Create(name string) (File, error) {
	l.meta()
	f, err := l.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &latencyFile{File: f, fs: l}, nil
}

func (l *LatencyFS) Open(name string) (File, error) {
	l.meta()
	f, err := l.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &latencyFile{File: f, fs: l}, nil
}

func (l *LatencyFS) Append(name string) (File, error) {
	l.meta()
	f, err := l.inner.Append(name)
	if err != nil {
		return nil, err
	}
	return &latencyFile{File: f, fs: l}, nil
}

func (l *LatencyFS) MkdirAll(name string) error { l.meta(); return l.inner.MkdirAll(name) }
func (l *LatencyFS) Remove(name string) error   { l.meta(); return l.inner.Remove(name) }

func (l *LatencyFS) Rename(oldName, newName string) error {
	l.meta()
	return l.inner.Rename(oldName, newName)
}

func (l *LatencyFS) Stat(name string) (FileInfo, error) { l.meta(); return l.inner.Stat(name) }
func (l *LatencyFS) ReadDir(name string) ([]FileInfo, error) {
	l.meta()
	return l.inner.ReadDir(name)
}

func (l *LatencyFS) Truncate(name string, size int64) error {
	l.write(0)
	return l.inner.Truncate(name, size)
}

// latencyFile charges data operations on an open handle. Only the bytes
// actually transferred are billed, so a short read prices what moved.
type latencyFile struct {
	File
	fs *LatencyFS
}

func (f *latencyFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.fs.read(n)
	return n, err
}

func (f *latencyFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.fs.read(n)
	return n, err
}

func (f *latencyFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.write(n)
	return n, err
}

func (f *latencyFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.fs.write(n)
	return n, err
}

var (
	_ FS         = (*LatencyFS)(nil)
	_ File       = (*latencyFile)(nil)
	_ Cloner     = (*LatencyFS)(nil)
	_ SimClocked = (*LatencyFS)(nil)
)
