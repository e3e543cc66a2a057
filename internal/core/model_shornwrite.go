package core

import (
	"fmt"

	"ffis/internal/vfs"
)

// ShornWrite persists only the leading fraction of each 4 KiB block at
// 512-byte sector granularity while still reporting full success,
// modelling a write torn by a power fault.
var ShornWrite = Register(shornWriteModel{}, "shorn")

type shornWriteModel struct{ BaseModel }

func (shornWriteModel) Name() string  { return "shorn-write" }
func (shornWriteModel) Short() string { return "SW" }

func (shornWriteModel) Host() vfs.Primitive { return vfs.PrimWrite }

func (shornWriteModel) Describe() string {
	return "completely write the first 3/8th or 7/8th of each 4KB block at 512B granularity; reported size unchanged"
}

// MutateWrite builds the post-fault content of a shorn write. Sectors
// within the kept fraction of each 4 KiB block persist the new data; lost
// sectors retain whatever the device previously stored there. Where the
// file had no previous content (an append), the lost sectors surface stale
// data from the device's FTL — modelled as the new buffer shifted back one
// sector, which reproduces the paper's observation that shorn remnants are
// "within an order of magnitude difference from the original data".
func (sw shornWriteModel) MutateWrite(env Env, op WriteOp) WriteAction {
	f := env.Feature()
	keep, droppedSectors := shornPlan(op.Off, len(op.Buf), f)

	// Start from the stale view: previous file content where it exists...
	out := make([]byte, len(op.Buf))
	n, _ := op.File.ReadAt(out, op.Off) // best-effort; short read leaves zeros
	if n < len(out) {
		// ...and FTL remnants beyond old EOF: the buffer lagged by one
		// sector, so lost sectors hold plausible same-magnitude data.
		for i := n; i < len(out); i++ {
			src := i - SectorSize
			if src < 0 {
				src = 0
			}
			out[i] = op.Buf[src]
		}
	}
	kept := 0
	for _, seg := range keep {
		kept += copy(out[seg.Start:seg.End], op.Buf[seg.Start:seg.End])
	}
	env.Record(Mutation{
		Model: sw, Path: op.Path, Offset: op.Off,
		Length: len(op.Buf), Kept: kept, Sectors: droppedSectors,
	})
	return WriteAction{Buf: out}
}

func (shornWriteModel) RenderMutation(m Mutation) string {
	return fmt.Sprintf("shorn-write %s off=%d len=%d kept=%d lost-sectors=%d",
		m.Path, m.Offset, m.Length, m.Kept, m.Sectors)
}

// shornPlan computes which byte ranges of a write survive a shorn write.
// The device persists only the first KeepNum/KeepDen of every BlockSize
// block, rounded to SectorSize sectors; everything else is lost. Block
// boundaries are device-absolute, so the plan depends on the file offset.
func shornPlan(off int64, length int, f Feature) (keep []segment, droppedSectors int) {
	if length == 0 {
		return nil, 0
	}
	keepBytesPerBlock := BlockSize * f.ShornKeepNum / f.ShornKeepDen
	keepBytesPerBlock -= keepBytesPerBlock % SectorSize
	end := off + int64(length)
	blockStart := off - off%BlockSize
	for bs := blockStart; bs < end; bs += BlockSize {
		keepEnd := bs + int64(keepBytesPerBlock)
		segStart, segEnd := max(bs, off), min(keepEnd, end)
		if segEnd > segStart {
			keep = append(keep, segment{segStart - off, segEnd - off})
		}
		lostStart, lostEnd := max(keepEnd, off), min(bs+BlockSize, end)
		if lostEnd > lostStart {
			droppedSectors += int((lostEnd - lostStart + SectorSize - 1) / SectorSize)
		}
	}
	return keep, droppedSectors
}

// segment is a [Start,End) byte range relative to the write buffer.
type segment struct{ Start, End int64 }
