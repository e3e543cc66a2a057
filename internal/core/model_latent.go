package core

import (
	"fmt"
	"io"

	"ffis/internal/vfs"
)

// LatentCorruption mutates the target file's at-rest bytes in place when
// the target read instance executes — data corrupted between the producing
// and the consuming stage. Unlike ReadBitFlip the damage is durable: this
// read and every subsequent read (including the outcome classifier's)
// observe the same corrupted bytes.
var LatentCorruption = Register(latentCorruptionModel{}, "latent")

type latentCorruptionModel struct{ BaseModel }

func (latentCorruptionModel) Name() string  { return "latent-corruption" }
func (latentCorruptionModel) Short() string { return "LC" }

func (latentCorruptionModel) Host() vfs.Primitive { return vfs.PrimRead }

func (latentCorruptionModel) Describe() string {
	return "flip consecutive bits in the at-rest bytes under the read range; every later read observes it"
}

// MutateRead corrupts the at-rest bytes under the read range before the
// read executes, so this very read already observes the damage.
func (lc latentCorruptionModel) MutateRead(env Env, op ReadOp) (int, error) {
	if op.OffErr != nil {
		return 0, fmt.Errorf("core: injector: device offset unknown for armed read: %w", op.OffErr)
	}
	if err := lc.corruptAtRest(env, op); err != nil {
		return 0, err
	}
	return op.Do(op.Buf)
}

// corruptAtRest flips bits in the stored bytes under the read range,
// clamped to the file's current size, through a writable side handle on the
// uninstrumented view — so the corruption is durable and every subsequent
// reader (the application and the outcome classifier alike) observes it.
func (lc latentCorruptionModel) corruptAtRest(env Env, op ReadOp) error {
	// Append opens read-write without truncating and works on files opened
	// read-only by the application.
	wf, err := op.FS.Append(op.Path)
	if err != nil {
		return fmt.Errorf("core: injector: latent corruption of %s: %w", op.Path, err)
	}
	defer wf.Close()
	size, err := wf.Size()
	if err != nil {
		return err
	}
	if op.Off >= size || op.Off < 0 {
		// The target read starts at/after EOF: there are no at-rest bytes
		// under it. The shot is spent on a read that delivers no data —
		// record the no-op so the run still counts as injected.
		env.Record(Mutation{Model: lc, Path: op.Path, Offset: op.Off, BitPos: -1, Latent: true})
		return nil
	}
	n := int64(len(op.Buf))
	if op.Off+n > size {
		n = size - op.Off
	}
	// The read's own buffer is the scratch (op.Do overwrites what it
	// delivers). What a short side read leaves unfilled is zeroed, as a
	// fresh buffer would be, and the same n bytes are written back.
	buf := op.Buf[:n]
	k, err := wf.ReadAt(buf, op.Off)
	if err != nil && err != io.EOF {
		return err
	}
	clear(buf[k:])
	m := env.Flip(buf)
	if _, err := wf.WriteAt(buf, op.Off); err != nil {
		return err
	}
	m.Model = lc
	m.Path = op.Path
	m.Offset = op.Off
	m.Latent = true
	env.Record(m)
	return nil
}

func (latentCorruptionModel) RenderMutation(m Mutation) string {
	return fmt.Sprintf("latent-corruption %s off=%d bit=%d (at rest)", m.Path, m.Offset, m.BitPos)
}
