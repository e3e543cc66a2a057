package vfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// OSFS implements FS on top of a real directory tree, the moral equivalent
// of the paper's FFISFS mount point backed by ext4/Lustre: campaigns can
// interpose the very same injector wrappers over real storage instead of
// MemFS. All paths are interpreted relative to Root and confined to it.
type OSFS struct {
	Root string
}

// NewOSFS returns a file system rooted at dir.
func NewOSFS(dir string) *OSFS { return &OSFS{Root: dir} }

// osError pairs a host-OS error with the package sentinel it corresponds
// to: errors.Is matches either, and the message stays the host's.
type osError struct {
	err      error
	sentinel error
}

func (e *osError) Error() string   { return e.err.Error() }
func (e *osError) Unwrap() []error { return []error{e.err, e.sentinel} }

// osErr maps host-OS error shapes onto this package's sentinels so OSFS
// satisfies the same behavioral contract as the hermetic backends:
// errors.Is(err, ErrNotDir) holds whether the backend is MemFS or a real
// ext4 tree. ErrNotExist and ErrExist need no mapping (they alias io/fs,
// which the os package already wraps); the errno-shaped conditions do.
func osErr(err error) error {
	if err == nil {
		return nil
	}
	for _, m := range []struct {
		host     error
		sentinel error
	}{
		{os.ErrClosed, ErrClosed},
		{syscall.ENOTDIR, ErrNotDir},
		{syscall.ENOTEMPTY, ErrDirNotEmpty},
		{syscall.EISDIR, ErrIsDir},
	} {
		if errors.Is(err, m.host) {
			return &osError{err: err, sentinel: m.sentinel}
		}
	}
	return err
}

// resolve maps a virtual path onto the host file system, confining it to
// Root (".." escapes are squashed by Clean's rooted normalization).
func (o *OSFS) resolve(name string) string {
	clean := Clean(name) // rooted, ".." resolved against "/"
	return filepath.Join(o.Root, filepath.FromSlash(strings.TrimPrefix(clean, "/")))
}

// Create opens name for writing, creating or truncating it.
func (o *OSFS) Create(name string) (File, error) {
	f, err := os.OpenFile(o.resolve(name), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, osErr(err)
	}
	return &osFile{name: Clean(name), f: f}, nil
}

// Open opens name read-only.
func (o *OSFS) Open(name string) (File, error) {
	f, err := os.Open(o.resolve(name))
	if err != nil {
		return nil, osErr(err)
	}
	return &osFile{name: Clean(name), f: f, readOnly: true}, nil
}

// Append opens name for writing at end-of-file, creating it if needed.
func (o *OSFS) Append(name string) (File, error) {
	// O_APPEND would defeat WriteAt, so seek manually instead.
	f, err := os.OpenFile(o.resolve(name), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, osErr(err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, osErr(err)
	}
	return &osFile{name: Clean(name), f: f}, nil
}

// MkdirAll creates name and any missing parents.
func (o *OSFS) MkdirAll(name string) error { return osErr(os.MkdirAll(o.resolve(name), 0o755)) }

// Remove unlinks a file or empty directory.
func (o *OSFS) Remove(name string) error { return osErr(os.Remove(o.resolve(name))) }

// Rename moves oldName to newName.
func (o *OSFS) Rename(oldName, newName string) error {
	return osErr(os.Rename(o.resolve(oldName), o.resolve(newName)))
}

// Stat returns metadata for name.
func (o *OSFS) Stat(name string) (FileInfo, error) {
	fi, err := os.Stat(o.resolve(name))
	if err != nil {
		return FileInfo{}, osErr(err)
	}
	return FileInfo{
		Name:  fi.Name(),
		Size:  fi.Size(),
		IsDir: fi.IsDir(),
	}, nil
}

// ReadDir lists the children of name in sorted order.
func (o *OSFS) ReadDir(name string) ([]FileInfo, error) {
	entries, err := os.ReadDir(o.resolve(name))
	if err != nil {
		return nil, osErr(err)
	}
	out := make([]FileInfo, 0, len(entries))
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			return nil, err
		}
		out = append(out, FileInfo{
			Name:  e.Name(),
			Size:  fi.Size(),
			IsDir: e.IsDir(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Truncate resizes name.
func (o *OSFS) Truncate(name string, size int64) error {
	return osErr(os.Truncate(o.resolve(name), size))
}

type osFile struct {
	name     string
	f        *os.File
	readOnly bool
}

func (f *osFile) Name() string { return f.name }

func (f *osFile) Read(p []byte) (int, error) {
	n, err := f.f.Read(p)
	return n, readErr(err)
}

func (f *osFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.f.ReadAt(p, off)
	return n, readErr(err)
}

// readErr normalizes read-path errors while leaving io.EOF untouched (it
// is a result, not a failure).
func readErr(err error) error {
	if err == io.EOF {
		return err
	}
	return osErr(err)
}

func (f *osFile) Write(p []byte) (int, error) {
	if f.readOnly {
		return 0, ErrReadOnly
	}
	n, err := f.f.Write(p)
	return n, osErr(err)
}

func (f *osFile) WriteAt(p []byte, off int64) (int, error) {
	if f.readOnly {
		return 0, ErrReadOnly
	}
	n, err := f.f.WriteAt(p, off)
	return n, osErr(err)
}

func (f *osFile) Seek(offset int64, whence int) (int64, error) {
	pos, err := f.f.Seek(offset, whence)
	return pos, osErr(err)
}

func (f *osFile) Size() (int64, error) {
	fi, err := f.f.Stat()
	if err != nil {
		return 0, osErr(err)
	}
	return fi.Size(), nil
}

func (f *osFile) Sync() error { return osErr(f.f.Sync()) }

func (f *osFile) Close() error { return osErr(f.f.Close()) }

var (
	_ FS   = (*OSFS)(nil)
	_ File = (*osFile)(nil)
)
