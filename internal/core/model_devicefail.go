package core

import (
	"fmt"

	"ffis/internal/vfs"
)

// DeviceFailure models a device dropping off the bus mid-run: at a drawn op
// index every write starts failing with EIO and never recovers — the
// whole-device counterpart of the sector-scoped faults, and the maximally
// correlated member of the MultiShot family (its shot plan claims every
// instance from the target on, with an effectively unbounded budget). It
// kills data production from the failure point. Classification tells the
// stories apart: an application that survives on already-persisted data is
// benign, one that errors out is a detected failure or crash.
var DeviceFailure = Register(deviceFailureModel{}, "devfail")

type deviceFailureModel struct{ BaseModel }

func (deviceFailureModel) Name() string  { return "device-failure" }
func (deviceFailureModel) Short() string { return "DF" }

func (deviceFailureModel) Host() vfs.Primitive { return vfs.PrimWrite }

func (deviceFailureModel) Describe() string {
	return "the device drops off the bus at the drawn op index: the armed primitive fails with EIO from then on"
}

// Claims takes every instance from the target on: a failed device does not
// come back.
func (deviceFailureModel) Claims(int64) bool { return true }

// DefaultShots is effectively unbounded; the run ends long before 2^30
// primitive instances.
func (deviceFailureModel) DefaultShots() int { return 1 << 30 }

// MutateWrite fails the write with EIO; nothing reaches the device.
func (df deviceFailureModel) MutateWrite(env Env, op WriteOp) WriteAction {
	env.Record(Mutation{
		Model: df, Path: op.Path, Offset: op.Off, Length: len(op.Buf),
		Detail: fmt.Sprintf("shot %d: write refused", env.Shot()),
	})
	return WriteAction{Err: &vfs.PathError{Op: "write", Path: op.Path, Err: vfs.ErrDeviceFailed}}
}

func (deviceFailureModel) RenderMutation(m Mutation) string {
	return fmt.Sprintf("device-failure %s off=%d len=%d %s (EIO)", m.Path, m.Offset, m.Length, m.Detail)
}
