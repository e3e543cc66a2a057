package vfs

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Mount-table sentinel errors. ErrCrossMount is the EXDEV of this layer:
// rename cannot move data between backends atomically, so MountFS rejects it
// and leaves the copy-and-delete decision to the caller — exactly the
// failure mode tiered HPC storage exposes when an application renames a
// burst-buffer file onto the parallel file system. ErrMountBusy guards the
// mount table itself (EBUSY): a mount point cannot be unlinked or renamed
// over while a backend is attached beneath it.
var (
	ErrCrossMount = &crossMountError{}
	ErrMountBusy  = &mountBusyError{}
)

type crossMountError struct{}

func (*crossMountError) Error() string { return "vfs: cross-mount operation" }

type mountBusyError struct{}

func (*mountBusyError) Error() string { return "vfs: mount point busy" }

// MountPoint describes one entry of a MountFS table: the absolute path the
// backend is attached at and the backend itself.
type MountPoint struct {
	Path string
	FS   FS
}

// MountFS is a Unix-style mount table implementing FS: a set of backends
// attached at directory paths, with every operation routed to the backend
// owning the longest matching path prefix (on whole path segments, so a
// mount at /scratch never captures /scratchpad).
//
// This is the storage-tier model the paper's methodology implies but its
// flat FFISFS mount point cannot express: an HPC application sees one
// namespace, yet /scratch may be a burst buffer and /project a parallel
// file system, and a storage fault lives in ONE of those devices. By
// mounting a separate backend per tier and interposing the fault injector
// on a single mount (see WithInterposed and core's CampaignConfig.ArmMounts),
// a campaign corrupts exactly the I/O routed to the faulty tier while every
// other tier stays clean — transparency (R1) holds because MountFS is just
// another FS to the application.
//
// Semantics, in Unix terms:
//
//   - Mount materializes the mount-point directory in the covering backend
//     (like mounting over an existing directory), so parent ReadDir listings
//     naturally include it and Stat on the mount point reports a directory.
//   - Backends keep the application's paths: a backend mounted at /scratch
//     stores /scratch/f as /scratch/f, so handle names, error paths and
//     what an interposed wrapper sees all name the path the application
//     used, as at a FUSE boundary.
//   - Nested mounts shadow their ancestors: with backends at /a and /a/b,
//     paths under /a/b route to the inner backend.
//   - Rename across two backends fails with ErrCrossMount (EXDEV).
//   - Remove and Rename refuse to disturb a live mount point
//     (ErrMountBusy).
//
// MountFS is safe for concurrent use; the table itself is guarded by an
// RWMutex and all per-file state lives in the backends.
type MountFS struct {
	mu     sync.RWMutex
	mounts []mountEntry // resolution scans for the longest segment-prefix
	cloned bool         // made by Clone and not remounted since (Unchanged)
}

// mountEntry is the table's internal form of a MountPoint.
type mountEntry struct {
	path string
	fs   FS
}

// NewMountFS returns a mount table with root attached at "/". The result is
// behaviourally identical to using root directly until further backends are
// mounted.
func NewMountFS(root FS) *MountFS {
	return &MountFS{mounts: []mountEntry{{path: "/", fs: root}}}
}

// Mount attaches backend at dir. The mount-point directory is created in the
// covering mount (MkdirAll through the table as it stands), mirroring the
// Unix requirement that a mount point be an existing directory; mounting
// over a regular file fails with ErrNotDir. It is created in backend too,
// which stores everything routed to it under its table path (dir/...).
// Mounting at a path that already
// hosts a backend fails with ErrMountBusy, and mounting at "/" fails with
// ErrMountBusy too (the root backend is fixed at construction).
func (m *MountFS) Mount(dir string, backend FS) error {
	dir = Clean(dir)
	if dir == "/" {
		return &PathError{Op: "mount", Path: dir, Err: ErrMountBusy}
	}
	m.mu.RLock()
	exists := m.indexOf(dir) >= 0
	m.mu.RUnlock()
	if exists {
		return &PathError{Op: "mount", Path: dir, Err: ErrMountBusy}
	}
	// Materialize the mount point in the covering backend before taking the
	// write lock: MkdirAll re-enters the table through the public API.
	if err := m.MkdirAll(dir); err != nil {
		return err
	}
	if err := backend.MkdirAll(dir); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.indexOf(dir) >= 0 {
		return &PathError{Op: "mount", Path: dir, Err: ErrMountBusy}
	}
	m.mounts = append(m.mounts, mountEntry{path: dir, fs: backend})
	m.cloned = false
	return nil
}

// Mounts returns a snapshot of the mount table sorted by path.
func (m *MountFS) Mounts() []MountPoint {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]MountPoint, 0, len(m.mounts))
	for _, mp := range m.mounts {
		out = append(out, MountPoint{Path: mp.path, FS: mp.fs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// WithInterposed returns a copy of the mount table in which the backend at
// dir is replaced by wrap over that backend. Backends are shared with the
// receiver, not copied: both tables route to the same storage, only the
// wrapping differs. This is how core arms a fault injector (or a disarmed
// one, for the profiling pass) on a single storage tier while the original
// table remains a clean view for golden comparison and outcome
// classification.
//
// Backends keep the application's paths, so the interposed stack observes
// them too — wrap's FS receives "/scratch/run/out.h5" — and injector
// mutation records and profiler traces name the tier they belong to.
func (m *MountFS) WithInterposed(dir string, wrap func(FS) FS) (*MountFS, error) {
	dir = Clean(dir)
	m.mu.RLock()
	defer m.mu.RUnlock()
	idx := m.indexOf(dir)
	if idx < 0 {
		return nil, &PathError{Op: "interpose", Path: dir, Err: ErrNotExist}
	}
	mounts := append([]mountEntry(nil), m.mounts...)
	mounts[idx].fs = wrap(mounts[idx].fs)
	return &MountFS{mounts: mounts}, nil
}

// indexOf returns the table index of the mount at exactly dir, or -1.
// Callers hold m.mu.
func (m *MountFS) indexOf(dir string) int {
	for i, mp := range m.mounts {
		if mp.path == dir {
			return i
		}
	}
	return -1
}

// underneath reports whether name lies at or below dir on whole path
// segments: /scratch/f is underneath /scratch, /scratchpad is not.
func underneath(name, dir string) bool {
	if dir == "/" {
		return true
	}
	return name == dir || strings.HasPrefix(name, dir+"/")
}

// resolve routes name to the mount owning the longest matching segment
// prefix and returns it with the cleaned name: every backend stores its
// files under their table paths, so no translation happens here.
// Equal-length candidates cannot both match one name — two distinct paths
// of the same length differ in some segment — so the longest match is
// unique.
func (m *MountFS) resolve(name string) (mountEntry, string) {
	name = Clean(name)
	m.mu.RLock()
	defer m.mu.RUnlock()
	best := -1
	for i, mp := range m.mounts {
		if underneath(name, mp.path) && (best < 0 || len(mp.path) > len(m.mounts[best].path)) {
			best = i
		}
	}
	return m.mounts[best], name // the root mount matches everything; best >= 0
}

// guardMountPoints returns ErrMountBusy when any mount point other than the
// one owning name sits at or below name — the table-structure guard for
// Remove and rename targets.
func (m *MountFS) guardMountPoints(op, name string) error {
	name = Clean(name)
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, mp := range m.mounts {
		if mp.path != "/" && underneath(mp.path, name) {
			return &PathError{Op: op, Path: name, Err: ErrMountBusy}
		}
	}
	return nil
}

// Create routes to the owning mount.
func (m *MountFS) Create(name string) (File, error) {
	mp, rel := m.resolve(name)
	return mp.fs.Create(rel)
}

// Open routes to the owning mount.
func (m *MountFS) Open(name string) (File, error) {
	mp, rel := m.resolve(name)
	return mp.fs.Open(rel)
}

// Append routes to the owning mount.
func (m *MountFS) Append(name string) (File, error) {
	mp, rel := m.resolve(name)
	return mp.fs.Append(rel)
}

// MkdirAll routes to the owning mount. A path that crosses a mount boundary
// resolves entirely to the innermost mount; the segments above the boundary
// already exist as materialized mount-point directories.
func (m *MountFS) MkdirAll(name string) error {
	mp, rel := m.resolve(name)
	return mp.fs.MkdirAll(rel)
}

// Remove routes to the owning mount; removing a live mount point (or a
// directory hosting one) fails with ErrMountBusy.
func (m *MountFS) Remove(name string) error {
	if err := m.guardMountPoints("remove", name); err != nil {
		return err
	}
	mp, rel := m.resolve(name)
	return mp.fs.Remove(rel)
}

// Rename routes to the owning mount when both names resolve to the same
// backend and fails with ErrCrossMount (EXDEV) otherwise: two backends
// cannot exchange data atomically, which is precisely the semantic tiered
// storage exposes to HPC applications renaming scratch output into place.
func (m *MountFS) Rename(oldName, newName string) error {
	if err := m.guardMountPoints("rename", oldName); err != nil {
		return err
	}
	if err := m.guardMountPoints("rename", newName); err != nil {
		return err
	}
	oldMp, oldRel := m.resolve(oldName)
	newMp, newRel := m.resolve(newName)
	if oldMp.path != newMp.path {
		return &PathError{Op: "rename", Path: Clean(oldName) + " -> " + Clean(newName), Err: ErrCrossMount}
	}
	return oldMp.fs.Rename(oldRel, newRel)
}

// Stat routes to the owning mount; a mount point resolves to the
// mount-point directory Mount created in its own backend.
func (m *MountFS) Stat(name string) (FileInfo, error) {
	mp, rel := m.resolve(name)
	return mp.fs.Stat(rel)
}

// ReadDir routes to the owning mount. Listings remain consistent at mount
// boundaries without merging because Mount materialized every mount-point
// directory in its covering backend: listing /​ shows scratch/ even though
// scratch's content lives in another backend, and listing /scratch lists
// that backend's /scratch directory.
func (m *MountFS) ReadDir(name string) ([]FileInfo, error) {
	mp, rel := m.resolve(name)
	return mp.fs.ReadDir(rel)
}

// Truncate routes to the owning mount.
func (m *MountFS) Truncate(name string, size int64) error {
	mp, rel := m.resolve(name)
	return mp.fs.Truncate(rel, size)
}

// SimElapsed implements SimClocked by summing the simulated clocks of
// every latency-modeled backend in the table. Unclocked tiers contribute
// zero, so a world with no latency-modeled mount reports zero.
func (m *MountFS) SimElapsed() time.Duration {
	var total time.Duration
	m.backends(func(fs FS) {
		d, _ := SimElapsed(fs)
		total += d
	})
	return total
}

// backends calls fn on every mounted backend, under the table's read lock.
func (m *MountFS) backends(fn func(FS)) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, mp := range m.mounts {
		fn(mp.fs)
	}
}

var (
	_ FS         = (*MountFS)(nil)
	_ SimClocked = (*MountFS)(nil)
)
