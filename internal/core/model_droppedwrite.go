package core

import "ffis/internal/vfs"

// DroppedWrite discards the write entirely yet reports full success,
// modelling a write acknowledged by the device but never persisted.
var DroppedWrite = Register(droppedWriteModel{}, "dropped")

type droppedWriteModel struct{ BaseModel }

func (droppedWriteModel) Name() string  { return "dropped-write" }
func (droppedWriteModel) Short() string { return "DW" }

func (droppedWriteModel) Host() vfs.Primitive { return vfs.PrimWrite }

func (droppedWriteModel) Describe() string {
	return "the write operation is ignored; success with the full size is returned"
}

func (dw droppedWriteModel) MutateWrite(env Env, op WriteOp) WriteAction {
	env.Record(Mutation{
		Model: dw, Path: op.Path, Offset: op.Off,
		Length: len(op.Buf), Dropped: true,
	})
	return WriteAction{Skip: true}
}
