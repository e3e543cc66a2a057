package core

import (
	"fmt"

	"ffis/internal/vfs"
)

// BitFlip flips consecutive bits at a random position in the write buffer,
// modelling silent bit corruption that escaped the SSD's ECC.
var BitFlip = Register(bitFlipModel{}, "bitflip")

type bitFlipModel struct{ BaseModel }

func (bitFlipModel) Name() string  { return "bit-flip" }
func (bitFlipModel) Short() string { return "BF" }

func (bitFlipModel) Host() vfs.Primitive { return vfs.PrimWrite }

func (bitFlipModel) Describe() string {
	return "flip consecutive multiple bits (default 2)"
}

func (bf bitFlipModel) MutateWrite(env Env, op WriteOp) WriteAction {
	mutated, m := env.Flip(op.Buf)
	m.Model = bf
	m.Path = op.Path
	m.Offset = op.Off
	m.Length = len(op.Buf)
	env.Record(m)
	return WriteAction{Buf: mutated}
}

func (bitFlipModel) RenderMutation(m Mutation) string {
	return fmt.Sprintf("bit-flip %s off=%d len=%d bit=%d", m.Path, m.Offset, m.Length, m.BitPos)
}
