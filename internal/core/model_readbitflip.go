package core

import (
	"fmt"

	"ffis/internal/vfs"
)

// ReadBitFlip flips consecutive bits in the buffer returned by the target
// read instance — bit rot surfaced at read time. The fault is transient:
// the media is unchanged and only this one read observes the corruption (a
// re-read delivers clean data).
var ReadBitFlip = Register(readBitFlipModel{}, "read-bitflip")

type readBitFlipModel struct{ BaseModel }

func (readBitFlipModel) Name() string  { return "read-bit-flip" }
func (readBitFlipModel) Short() string { return "RB" }

func (readBitFlipModel) Host() vfs.Primitive { return vfs.PrimRead }

func (readBitFlipModel) Describe() string {
	return "flip consecutive multiple bits in the returned read buffer; media unchanged (transient)"
}

// MutateRead applies the transient bit rot to the bytes the device
// delivered. A shot landing on a read that delivered nothing (the EOF
// probe ending every read-until-EOF loop — profiled, hence claimable)
// burns harmlessly, recorded with BitPos -1 like a latent shot at EOF.
func (rb readBitFlipModel) MutateRead(env Env, op ReadOp) (int, error) {
	n, err := op.Do(op.Buf)
	m := env.Flip(op.Buf[:n])
	m.Model = rb
	m.Path = op.Path
	m.Offset = op.Off
	m.Length = n
	env.Record(m)
	return n, err
}

func (readBitFlipModel) RenderMutation(m Mutation) string {
	return fmt.Sprintf("read-bit-flip %s off=%d len=%d bit=%d (transient)", m.Path, m.Offset, m.Length, m.BitPos)
}
