package core

import (
	"fmt"

	"ffis/internal/vfs"
)

// BurstCorruption mangles 4 adjacent sectors of one write in a single event
// — the spatially correlated corruption pattern device studies report from
// voltage droops and program disturbs, where damage clusters on
// neighbouring cells instead of striking one random bit. One event, one
// shot: the correlation is spatial (across sectors of the claimed buffer),
// not temporal, so the model stays single-shot and its claim sequence is
// identical to the classic injector's.
var BurstCorruption = Register(burstCorruptionModel{}, "burst")

type burstCorruptionModel struct{ BaseModel }

func (burstCorruptionModel) Name() string  { return "burst-corruption" }
func (burstCorruptionModel) Short() string { return "BC" }

func (burstCorruptionModel) Host() vfs.Primitive { return vfs.PrimWrite }

func (burstCorruptionModel) Describe() string {
	return "one event flips bits in 4 adjacent sectors of the buffer"
}

// burstSectors is the width of one burst, in sectors.
const burstSectors = 4

// MutateWrite flips FlipBits consecutive bits in each of burstSectors
// adjacent sectors of the claimed buffer, starting at a uniformly drawn
// sector. The burst is clamped to the buffer: a write shorter than the
// burst is corrupted to its end, matching a burst that runs off the
// victim's range.
func (bc burstCorruptionModel) MutateWrite(env Env, op WriteOp) WriteAction {
	const sec = SectorSize
	out := append([]byte(nil), op.Buf...)
	nsec := (len(out) + sec - 1) / sec
	start := env.Intn(nsec)
	k := burstSectors
	if start+k > nsec {
		k = nsec - start
	}
	firstBit := -1
	for i := 0; i < k; i++ {
		lo := (start + i) * sec
		hi := lo + sec
		if hi > len(out) {
			hi = len(out)
		}
		m := env.Flip(out[lo:hi])
		if firstBit < 0 && m.BitPos >= 0 {
			firstBit = lo*8 + m.BitPos
		}
	}
	env.Record(Mutation{
		Model: bc, Path: op.Path, Offset: op.Off, Length: len(op.Buf),
		BitPos: firstBit, Sectors: k,
		Detail: fmt.Sprintf("burst over %d adjacent sectors from sector %d", k, start),
	})
	return WriteAction{Buf: out}
}

func (burstCorruptionModel) RenderMutation(m Mutation) string {
	return fmt.Sprintf("burst-corruption %s off=%d len=%d %s (first bit %d)",
		m.Path, m.Offset, m.Length, m.Detail, m.BitPos)
}
