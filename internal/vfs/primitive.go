package vfs

// Primitive names the FUSE-level operations FFIS can target. These mirror
// the "FFIS_write, FFIS_mknod, FFIS_chmod ..." callbacks of Table I.
type Primitive string

// The primitive vocabulary. PrimWrite covers both sequential Write and
// positional WriteAt calls, matching the paper where every data write funnels
// into the single FFIS_write → pwrite path.
const (
	PrimWrite    Primitive = "write"
	PrimRead     Primitive = "read"
	PrimCreate   Primitive = "create"
	PrimOpen     Primitive = "open"
	PrimMknod    Primitive = "mknod"
	PrimChmod    Primitive = "chmod"
	PrimMkdir    Primitive = "mkdir"
	PrimRemove   Primitive = "remove"
	PrimRename   Primitive = "rename"
	PrimTruncate Primitive = "truncate"
	PrimStat     Primitive = "stat"
	PrimReadDir  Primitive = "readdir"
)
