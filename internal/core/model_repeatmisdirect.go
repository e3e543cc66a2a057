package core

import (
	"fmt"

	"ffis/internal/vfs"
)

// RepeatedMisdirection is the firmware-bug rendering of a misdirected
// write: once the bug triggers (at the drawn target instance), every 4th
// write from then on is steered to the wrong LBA until the shot budget runs
// out — a single temporally correlated event, not independent faults. The
// model is the registry's first MultiShot registration: the injector,
// campaign runner, engine, results store, and experiment grids all pick up
// the multi-instance behavior through Signature.ShotBudget with no edits of
// their own.
var RepeatedMisdirection = Register(repeatedMisdirectionModel{}, "repeat-misdirect")

type repeatedMisdirectionModel struct{ BaseModel }

func (repeatedMisdirectionModel) Name() string  { return "repeated-misdirection" }
func (repeatedMisdirectionModel) Short() string { return "RM" }

func (repeatedMisdirectionModel) Host() vfs.Primitive { return vfs.PrimWrite }

func (repeatedMisdirectionModel) Describe() string {
	return "from the target on, every 4th write is persisted at a wrong sector-aligned offset (default budget 4 shots)"
}

// misdirectEvery is the write-instance stride of one misdirection event.
const misdirectEvery = 4

// Claims selects the target write and every misdirectEvery-th write after
// it.
func (repeatedMisdirectionModel) Claims(rel int64) bool {
	return rel%misdirectEvery == 0
}

// DefaultShots bounds the event at four misplaced writes — long enough to
// straddle checkpoint boundaries, short enough that the fault stays a
// transient firmware episode rather than a dead device (that is
// DeviceFailure's regime).
func (repeatedMisdirectionModel) DefaultShots() int { return 4 }

// MutateWrite performs the displaced write itself through the underlying
// handle, then tells the injector to skip (and acknowledge) the requested
// one — per shot, the same device behavior as MisdirectedWrite.
func (rm repeatedMisdirectionModel) MutateWrite(env Env, op WriteOp) WriteAction {
	return misdirect(env, op, rm, fmt.Sprintf("shot %d ", env.Shot()))
}
