package core

import (
	"fmt"

	"ffis/internal/vfs"
)

// UnreadableSector fails the target read instance with EIO, modelling an
// uncorrectable ECC error: the device refuses to deliver the sector at all
// rather than deliver it silently corrupted.
var UnreadableSector = Register(unreadableSectorModel{}, "unreadable")

type unreadableSectorModel struct{ BaseModel }

func (unreadableSectorModel) Name() string  { return "unreadable-sector" }
func (unreadableSectorModel) Short() string { return "UR" }

func (unreadableSectorModel) Host() vfs.Primitive { return vfs.PrimRead }

func (unreadableSectorModel) Describe() string {
	return "the read fails with EIO (uncorrectable ECC); no data is delivered"
}

// MutateRead records the uncorrectable-ECC mutation and returns the EIO the
// application sees. The underlying read never executes: the device delivers
// nothing, and a sequential handle's offset stays where it was.
func (ur unreadableSectorModel) MutateRead(env Env, op ReadOp) (int, error) {
	env.Record(Mutation{
		Model: ur, Path: op.Path, Offset: op.Off,
		Length: len(op.Buf), Unreadable: true,
	})
	return 0, &vfs.PathError{Op: "read", Path: op.Path, Err: vfs.ErrUnreadable}
}

func (unreadableSectorModel) RenderMutation(m Mutation) string {
	return fmt.Sprintf("unreadable-sector %s off=%d len=%d (EIO)", m.Path, m.Offset, m.Length)
}
