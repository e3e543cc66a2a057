// Package trace implements the I/O pattern profiler of the FFIS stack
// (Figure 2 of the paper names "I/O pattern profiler" as one of the three
// FFIS components): a vfs wrapper that records every file-system operation
// an application performs, plus analyses over the recorded pattern — write
// size distributions, per-file access statistics, and the primitive counts
// the fault injector needs to aim campaigns.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// Op is one recorded file-system operation.
type Op struct {
	Seq       int           // global sequence number
	Primitive vfs.Primitive // which primitive executed
	Path      string        // target path
	Offset    int64         // file offset (write/read ops; -1 if sequential position unknown)
	Size      int           // payload size in bytes
	Err       bool          // the operation returned an error
}

func (o Op) String() string {
	return fmt.Sprintf("#%d %s %s off=%d size=%d err=%v",
		o.Seq, o.Primitive, o.Path, o.Offset, o.Size, o.Err)
}

// Recorder wraps an FS and appends every operation to an in-memory log.
type Recorder struct {
	inner vfs.FS

	mu  sync.Mutex
	log []Op
}

// NewRecorder wraps inner with operation recording.
func NewRecorder(inner vfs.FS) *Recorder { return &Recorder{inner: inner} }

// Log returns a copy of the recorded operations in sequence order.
func (r *Recorder) Log() []Op {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Op(nil), r.log...)
}

func (r *Recorder) record(p vfs.Primitive, path string, off int64, size int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.log = append(r.log, Op{
		Seq:       len(r.log),
		Primitive: p,
		Path:      path,
		Offset:    off,
		Size:      size,
		Err:       err != nil,
	})
}

// Create delegates and records.
func (r *Recorder) Create(name string) (vfs.File, error) {
	f, err := r.inner.Create(name)
	r.record(vfs.PrimCreate, vfs.Clean(name), -1, 0, err)
	if err != nil {
		return nil, err
	}
	return &recFile{File: f, r: r}, nil
}

// Open delegates and records.
func (r *Recorder) Open(name string) (vfs.File, error) {
	f, err := r.inner.Open(name)
	r.record(vfs.PrimOpen, vfs.Clean(name), -1, 0, err)
	if err != nil {
		return nil, err
	}
	return &recFile{File: f, r: r}, nil
}

// Append delegates and records.
func (r *Recorder) Append(name string) (vfs.File, error) {
	f, err := r.inner.Append(name)
	r.record(vfs.PrimOpen, vfs.Clean(name), -1, 0, err)
	if err != nil {
		return nil, err
	}
	return &recFile{File: f, r: r}, nil
}

// MkdirAll delegates and records.
func (r *Recorder) MkdirAll(name string) error {
	err := r.inner.MkdirAll(name)
	r.record(vfs.PrimMkdir, vfs.Clean(name), -1, 0, err)
	return err
}

// Remove delegates and records.
func (r *Recorder) Remove(name string) error {
	err := r.inner.Remove(name)
	r.record(vfs.PrimRemove, vfs.Clean(name), -1, 0, err)
	return err
}

// Rename delegates and records.
func (r *Recorder) Rename(oldName, newName string) error {
	err := r.inner.Rename(oldName, newName)
	r.record(vfs.PrimRename, vfs.Clean(oldName)+" -> "+vfs.Clean(newName), -1, 0, err)
	return err
}

// Stat delegates and records.
func (r *Recorder) Stat(name string) (vfs.FileInfo, error) {
	info, err := r.inner.Stat(name)
	r.record(vfs.PrimStat, vfs.Clean(name), -1, 0, err)
	return info, err
}

// ReadDir delegates and records.
func (r *Recorder) ReadDir(name string) ([]vfs.FileInfo, error) {
	infos, err := r.inner.ReadDir(name)
	r.record(vfs.PrimReadDir, vfs.Clean(name), -1, 0, err)
	return infos, err
}

// Truncate delegates and records.
func (r *Recorder) Truncate(name string, size int64) error {
	err := r.inner.Truncate(name, size)
	r.record(vfs.PrimTruncate, vfs.Clean(name), int64(size), 0, err)
	return err
}

type recFile struct {
	vfs.File
	r *Recorder
}

func (f *recFile) Write(p []byte) (int, error) {
	off, seekErr := f.File.Seek(0, 1) // io.SeekCurrent
	if seekErr != nil {
		off = -1
	}
	n, err := f.File.Write(p)
	f.r.record(vfs.PrimWrite, f.File.Name(), off, len(p), err)
	return n, err
}

func (f *recFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.r.record(vfs.PrimWrite, f.File.Name(), off, len(p), err)
	return n, err
}

func (f *recFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.r.record(vfs.PrimRead, f.File.Name(), -1, n, err)
	return n, err
}

func (f *recFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.r.record(vfs.PrimRead, f.File.Name(), off, n, err)
	return n, err
}

var (
	_ vfs.FS   = (*Recorder)(nil)
	_ vfs.File = (*recFile)(nil)
)

// Profile is the analysed I/O pattern of a trace.
type Profile struct {
	Ops        int
	ByPrim     map[vfs.Primitive]int
	Files      map[string]FileStats
	WriteSizes *stats.Histogram // write payload sizes, bins of 512 B up to 8 KiB
	TotalWrite int64
	TotalRead  int64
	Errors     int
}

// FileStats aggregates accesses to a single path.
type FileStats struct {
	Writes       int
	WriteBytes   int64
	Reads        int
	ReadBytes    int64
	Sequential   int // writes whose offset continued the previous write
	OverwriteOps int // writes strictly below the previously seen max offset
}

// Analyze computes the I/O pattern profile of a trace.
func Analyze(log []Op) *Profile {
	p := &Profile{
		ByPrim:     map[vfs.Primitive]int{},
		Files:      map[string]FileStats{},
		WriteSizes: stats.NewHistogram(0, 8192, 16),
	}
	lastEnd := map[string]int64{}
	maxEnd := map[string]int64{}
	for _, op := range log {
		p.Ops++
		p.ByPrim[op.Primitive]++
		if op.Err {
			p.Errors++
		}
		switch op.Primitive {
		case vfs.PrimWrite:
			fsStats := p.Files[op.Path]
			fsStats.Writes++
			fsStats.WriteBytes += int64(op.Size)
			if op.Offset >= 0 {
				if op.Offset == lastEnd[op.Path] {
					fsStats.Sequential++
				}
				if op.Offset < maxEnd[op.Path] {
					fsStats.OverwriteOps++
				}
				end := op.Offset + int64(op.Size)
				lastEnd[op.Path] = end
				if end > maxEnd[op.Path] {
					maxEnd[op.Path] = end
				}
			}
			p.Files[op.Path] = fsStats
			p.WriteSizes.Add(float64(op.Size))
			p.TotalWrite += int64(op.Size)
		case vfs.PrimRead:
			fsStats := p.Files[op.Path]
			fsStats.Reads++
			fsStats.ReadBytes += int64(op.Size)
			p.Files[op.Path] = fsStats
			p.TotalRead += int64(op.Size)
		}
	}
	return p
}

// Render prints the profile in the report form used by cmd tools.
func (p *Profile) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "I/O pattern profile: %d ops, %d B written, %d B read, %d errors\n",
		p.Ops, p.TotalWrite, p.TotalRead, p.Errors)
	prims := make([]string, 0, len(p.ByPrim))
	for prim, n := range p.ByPrim {
		prims = append(prims, fmt.Sprintf("%s=%d", prim, n))
	}
	sort.Strings(prims)
	fmt.Fprintf(&b, "  primitives: %s\n", strings.Join(prims, " "))
	paths := make([]string, 0, len(p.Files))
	for path := range p.Files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		fsStats := p.Files[path]
		fmt.Fprintf(&b, "  %-40s writes=%d (%d B, %d seq, %d overwrite) reads=%d (%d B)\n",
			path, fsStats.Writes, fsStats.WriteBytes, fsStats.Sequential,
			fsStats.OverwriteOps, fsStats.Reads, fsStats.ReadBytes)
	}
	return b.String()
}
