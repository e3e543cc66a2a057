package core

import (
	"fmt"

	"ffis/internal/vfs"
)

// MisdirectedWrite persists the buffer at a wrong sector-aligned offset
// while reporting success at the requested one — a firmware or driver bug
// steering the write to the wrong LBA. The requested range keeps its stale
// content; the displaced range is silently overwritten. This model ships
// purely as a registration: the injector, campaign runner, engine, CLI
// parsers, and experiment grids pick it up through the registry with no
// edits of their own.
var MisdirectedWrite = Register(misdirectedWriteModel{}, "misdirected")

type misdirectedWriteModel struct{ BaseModel }

func (misdirectedWriteModel) Name() string  { return "misdirected-write" }
func (misdirectedWriteModel) Short() string { return "MD" }

func (misdirectedWriteModel) Host() vfs.Primitive { return vfs.PrimWrite }

func (misdirectedWriteModel) Describe() string {
	return "the buffer is persisted at a wrong sector-aligned offset; success at the requested offset is returned"
}

// MutateWrite performs the displaced write itself through the underlying
// handle, then tells the injector to skip (and acknowledge) the requested
// one.
func (md misdirectedWriteModel) MutateWrite(env Env, op WriteOp) WriteAction {
	return misdirect(env, op, md, "")
}

// misdirect is the displaced write of the misdirection models, labelled
// in Mutation.Detail by label ("" or "shot N "). The displacement is 1–8
// sectors toward the start of the device — an already-programmed LBA —
// falling forward only when the write sits too close to offset zero;
// either way the victim range is sector-aligned relative to the intended
// offset.
func misdirect(env Env, op WriteOp, model Model, label string) WriteAction {
	delta := int64(1+env.Intn(8)) * SectorSize
	wrong := op.Off - delta
	if wrong < 0 {
		wrong = op.Off + delta
	}
	m := Mutation{
		Model: model, Path: op.Path, Offset: op.Off, Length: len(op.Buf),
		Detail: fmt.Sprintf("%spersisted at offset %d", label, wrong),
	}
	if _, err := op.File.WriteAt(op.Buf, wrong); err != nil {
		// The displaced write failed: the device lost the data entirely,
		// degenerating into a dropped write. The application still sees
		// success — that is the point of the fault.
		m.Dropped = true
		m.Detail = fmt.Sprintf("%smisdirected to offset %d and lost (%v)", label, wrong, err)
	}
	env.Record(m)
	return WriteAction{Skip: true}
}
