package core

import (
	"fmt"

	"ffis/internal/vfs"
)

// This file defines the contract between the injector and a fault model's
// hooks: the op structs describe the one claimed primitive instance,
// WriteAction tells the injector how to complete a write, and BaseModel
// supplies pass-through hooks so a model implements only the one for the
// primitive it hosts.

// WriteOp describes one claimed write instance (sequential Write or
// positional WriteAt — the paper funnels both into FFIS_write).
type WriteOp struct {
	// File is the underlying, uninstrumented handle of the file being
	// written: models may read the device's previous content through it
	// (shorn writes) or persist bytes elsewhere themselves (misdirected
	// writes) without re-entering the injector.
	File vfs.File
	// Path names the file the primitive targeted.
	Path string
	// Buf is the application's write buffer; hooks must not modify it in
	// place (return a mutated copy in WriteAction.Buf instead).
	Buf []byte
	// Off is the device offset the write lands at.
	Off int64
}

// WriteAction tells the injector how to complete an intercepted write.
type WriteAction struct {
	// Buf is the buffer actually handed to the device (ignored when Skip
	// or Err).
	Buf []byte
	// Skip suppresses the device write entirely while acknowledging full
	// success to the application — the sequential offset still advances,
	// as a device that lied about persisting would leave it.
	Skip bool
	// Err fails the write: nothing reaches the device and the application
	// sees this error with zero bytes written (device-failure models).
	Err error
}

// ReadOp describes one claimed read instance (sequential Read or positional
// ReadAt). The hook owns the whole read: nothing has touched the device
// when it runs.
type ReadOp struct {
	// File is the underlying handle of the file being read.
	File vfs.File
	// FS is the uninstrumented FS beneath the injector, addressed by the
	// same paths the application used: models that corrupt at-rest bytes open a writable side handle on it
	// without re-entering the injector.
	FS vfs.FS
	// Path names the file the primitive targeted.
	Path string
	// Buf is the application's destination buffer. As io.Reader allows, a
	// hook may use all of it as scratch before Do overwrites what it
	// delivers (latent corruption reads the at-rest bytes into it).
	Buf []byte
	// Off is the device offset of the read, or -1 when unknown; OffErr
	// then carries why (a sequential handle whose position query failed).
	Off    int64
	OffErr error
	// Do performs the underlying device read into p at this op's position
	// (sequential or positional, matching the intercepted call). Hooks
	// that model delivery failure never invoke it; hooks that shorten the
	// read pass a prefix of Buf.
	Do func(p []byte) (int, error)
}

// BaseModel provides pass-through implementations of both hooks, so a
// model embeds it and overrides only the one for its Host. A pass-through
// hook performs the primitive unchanged and records nothing — reaching one
// at runtime means Host() names a site the model never implemented, which
// the registry conformance suite flags.
type BaseModel struct{}

// MutateWrite passes the write through unchanged.
func (BaseModel) MutateWrite(env Env, op WriteOp) WriteAction {
	return WriteAction{Buf: op.Buf}
}

// MutateRead performs the underlying read unchanged.
func (BaseModel) MutateRead(env Env, op ReadOp) (int, error) {
	return op.Do(op.Buf)
}

// RenderMutation formats a mutation generically from the fixed fields plus
// the model-specific Detail, so a model without bespoke rendering still
// logs readably.
func (BaseModel) RenderMutation(m Mutation) string {
	name := "mutation"
	if m.Model != nil {
		name = m.Model.Name()
	}
	line := fmt.Sprintf("%s %s off=%d len=%d", name, m.Path, m.Offset, m.Length)
	if m.Detail != "" {
		line += " " + m.Detail
	}
	return line
}
