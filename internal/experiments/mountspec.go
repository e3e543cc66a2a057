package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"ffis/internal/vfs"
)

// MountSpec is a parsed mount-table entry from the command line. The
// accepted syntax (cmd/ffis -mount, repeatable) is
//
//	PATH[=BACKEND]
//
// where PATH is the absolute mount point and BACKEND is one of
//
//	mem          a fresh in-memory backend per campaign run (the default)
//	object       a fresh flat-key object store (vfs.ObjectFS) with strong
//	             consistency
//	object:lag=N the object store with an eventual-consistency window — the
//	             next N opens after an overwrite observe the old object
//	latency      a latency-modeled MemFS (vfs.LatencyFS) billing a simulated
//	             clock at parallel-file-system rates
//	latency:bb   latency-modeled at burst-buffer rates
//	latency:pfs  latency-modeled at parallel-file-system rates (alias of
//	             latency)
//
// Every backend is hermetic: a fresh instance per campaign run. A backend
// keeps table paths, so one mounted at /M stores its files under /M.
// Examples: "/scratch", "/scratch=latency:bb", "/data=object:lag=2".
type MountSpec struct {
	Path    string
	Backend string // "mem", "object[:lag=N]", or "latency[:bb|:pfs]"
}

// ValidateBackend checks a backend name against the mount-spec vocabulary
// by building one: NewBackendFS is the grammar's one parser, and every
// backend is cheap to construct.
func ValidateBackend(b string) error {
	_, err := NewBackendFS(b)
	return err
}

// NewBackendFS constructs one fresh backend instance by name.
func NewBackendFS(backend string) (vfs.FS, error) {
	switch {
	case backend == "mem":
		return vfs.NewMemFS(), nil
	case backend == "object":
		return vfs.NewObjectFS(), nil
	case strings.HasPrefix(backend, "object:lag="):
		lag, err := strconv.Atoi(strings.TrimPrefix(backend, "object:lag="))
		if err != nil || lag < 0 {
			return nil, fmt.Errorf("experiments: backend %q: lag must be a non-negative integer", backend)
		}
		o := vfs.NewObjectFS()
		o.SetConsistencyLag(lag)
		return o, nil
	case backend == "latency", backend == "latency:pfs":
		return vfs.NewLatencyFS(vfs.NewMemFS(), vfs.ParallelFSModel), nil
	case backend == "latency:bb":
		return vfs.NewLatencyFS(vfs.NewMemFS(), vfs.BurstBufferModel), nil
	}
	return nil, fmt.Errorf("experiments: unknown backend %q (want mem, object[:lag=N], or latency[:bb|:pfs])", backend)
}

// ParseMountSpec parses one -mount flag value.
func ParseMountSpec(s string) (MountSpec, error) {
	path, backend := s, "mem"
	if i := strings.IndexByte(s, '='); i >= 0 {
		path, backend = s[:i], s[i+1:]
	}
	if path == "" || !strings.HasPrefix(path, "/") {
		return MountSpec{}, fmt.Errorf("experiments: mount spec %q: path must be absolute", s)
	}
	if err := ValidateBackend(backend); err != nil {
		return MountSpec{}, fmt.Errorf("experiments: mount spec %q: %w", s, err)
	}
	return MountSpec{Path: vfs.Clean(path), Backend: backend}, nil
}

// newWorld returns a world constructor (core.Workload.NewFS) building a
// fresh root backend and, when mounts are given, a MountFS over it with
// one fresh backend per mount. Every world a WireSpec or StorageLayout
// names is built here, every backend fresh per call.
func newWorld(root string, mounts []MountSpec) func() (vfs.FS, error) {
	return func() (vfs.FS, error) {
		fs, err := NewBackendFS(root)
		if err != nil || len(mounts) == 0 {
			return fs, err
		}
		m := vfs.NewMountFS(fs)
		for _, s := range mounts {
			backend, err := NewBackendFS(s.Backend)
			if err != nil {
				return nil, fmt.Errorf("experiments: mount %s: %w", s.Path, err)
			}
			if err := m.Mount(s.Path, backend); err != nil {
				return nil, err
			}
		}
		return m, nil
	}
}
