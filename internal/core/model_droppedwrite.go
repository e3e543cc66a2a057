package core

import "ffis/internal/vfs"

// DroppedWrite discards the write entirely yet reports full success,
// modelling a write acknowledged by the device but never persisted. It
// hosts on every write-side primitive plus truncate (a dropped truncate is
// acknowledged but never applied).
var DroppedWrite = Register(droppedWriteModel{}, "dropped")

type droppedWriteModel struct{ BaseModel }

func (droppedWriteModel) Name() string  { return "dropped-write" }
func (droppedWriteModel) Short() string { return "DW" }

func (droppedWriteModel) Hosts() []vfs.Primitive {
	return []vfs.Primitive{vfs.PrimWrite, vfs.PrimMknod, vfs.PrimChmod, vfs.PrimTruncate}
}

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

func (dw droppedWriteModel) MutateTruncate(env Env, op TruncateOp) TruncateAction {
	env.Record(Mutation{Model: dw, Path: op.Path, Offset: op.Size, Dropped: true})
	return TruncateAction{Drop: true}
}

// MutateMeta drops the metadata call: the node is silently never created,
// the mode change silently never applied.
func (dw droppedWriteModel) MutateMeta(env Env, op MetaOp) MetaAction {
	env.Record(Mutation{Model: dw, Path: op.Path, Dropped: true})
	return MetaAction{Drop: true}
}
