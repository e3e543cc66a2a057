package core

import (
	"fmt"
	"io"

	"ffis/internal/vfs"
)

// ShortRead delivers fewer bytes than the application requested while
// reporting success — a device or transport truncating a transfer without
// raising an error. Robust read loops retry the remainder and tally
// benign; consumers that trust a single read's count see a silently
// truncated record. Like MisdirectedWrite, this model ships purely as a
// registration with zero edits to the injector or any campaign driver.
var ShortRead = Register(shortReadModel{}, "short")

type shortReadModel struct{ BaseModel }

func (shortReadModel) Name() string  { return "short-read" }
func (shortReadModel) Short() string { return "SR" }

func (shortReadModel) Host() vfs.Primitive { return vfs.PrimRead }

func (shortReadModel) Describe() string {
	return "the read returns fewer bytes than requested with a success status; media unchanged"
}

// MutateRead serves a strict prefix of the request: the device read runs
// with a truncated destination, so a sequential handle's offset advances
// only past the delivered bytes. A draw of zero delivers nothing at all —
// an empty success a read-until-EOF loop mistakes for end of file.
func (sr shortReadModel) MutateRead(env Env, op ReadOp) (int, error) {
	want := len(op.Buf)
	serve := env.Intn(want) // 0..want-1: strictly fewer than requested
	var n int
	var err error
	if serve > 0 {
		n, err = op.Do(op.Buf[:serve])
	}
	if err == io.EOF {
		// The truncation itself reports success; a genuinely exhausted
		// file keeps its EOF on the next, uninjected read.
		err = nil
	}
	env.Record(Mutation{Model: sr, Path: op.Path, Offset: op.Off, Length: want, Kept: n})
	return n, err
}

func (shortReadModel) RenderMutation(m Mutation) string {
	return fmt.Sprintf("short-read %s off=%d requested=%d delivered=%d (success)", m.Path, m.Offset, m.Length, m.Kept)
}
