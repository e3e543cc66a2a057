package vfs

// Primitive names a file-system operation: the FUSE-level callbacks of the
// paper's FFIS_write, FFIS_read, ... family. A fault model hosts exactly
// one of write and read, the two the injector intercepts; the trace
// recorder labels every operation it sees with the rest.
type Primitive string

// The primitive vocabulary. PrimWrite covers both sequential Write and
// positional WriteAt calls, matching the paper where every data write funnels
// into the single FFIS_write → pwrite path; PrimRead likewise covers Read
// and ReadAt.
const (
	PrimWrite    Primitive = "write"
	PrimRead     Primitive = "read"
	PrimCreate   Primitive = "create"
	PrimOpen     Primitive = "open"
	PrimMkdir    Primitive = "mkdir"
	PrimRemove   Primitive = "remove"
	PrimRename   Primitive = "rename"
	PrimTruncate Primitive = "truncate"
	PrimStat     Primitive = "stat"
	PrimReadDir  Primitive = "readdir"
)
