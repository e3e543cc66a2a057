package core

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// Injector holds the armed fault state shared by every handle of an
// InjectorFS. It counts dynamic executions of the signature's primitive and
// corrupts the target-th instance (0-based), as the paper's fault injector
// does: "for each fault injection run, it first generates a random number
// from 0 to count-1 ... when the execution count of the target primitive
// hits that random number, the fault injector applies the fault".
//
// One injection run still models one physical fault event, but an event may
// manifest on more than one primitive instance: the injector carries a shot
// budget (Signature.ShotBudget — 1 unless the model implements MultiShot or
// Signature.Shots overrides it), and a MultiShot model selects which
// instances at or after the drawn target belong to the event. For the
// single-shot default the claim sequence is exactly the classic one: the
// target instance fires, everything else passes through.
//
// The injector knows nothing about individual fault models: once a shot is
// claimed on the model's host primitive, it hands the instance to the
// Model hook (MutateWrite or MutateRead) and completes the primitive the
// way the hook dictates. Models are therefore free to ship as
// self-contained registrations — no dispatch switch here grows when the
// vocabulary does.
type Injector struct {
	sig    Signature
	host   vfs.Primitive // sig.Model.Host(), resolved once for the per-op checks
	target int64
	rng    *stats.RNG
	shots  int       // resolved shot budget
	plan   MultiShot // nil: only rel 0 claims

	count atomic.Int64

	mu        sync.Mutex // guards fired and mutations
	fired     int
	mutations []Mutation

	// serialDraws marks the one case where RNG draws still need a mutex.
	// The RNG state is sharded per (seed, run-index) stream — every run
	// constructs its own Injector around its own runStream RNG, so 8+
	// worker campaigns never share a draw lock across runs. Within one
	// run, draws happen only inside model hooks, and a hook runs only
	// after claim() succeeded. For the single-shot family (no MultiShot
	// plan) at most one claim can ever succeed — the claim winner owns
	// the stream exclusively and draws lock-free. Only a MultiShot plan
	// can have two claimed hooks on concurrent handles drawing at once,
	// so only then do draws serialize on rngMu. Either way the draw
	// order, and hence every tally, is bit-identical to the locked era —
	// the seed-pinned equivalence suites pin it.
	serialDraws bool
	rngMu       sync.Mutex
	// drew latches once a hook draws from the stream (flip, Env.Intn). A
	// run that finishes without a draw has a record that is a pure
	// function of (spec, target), which the Engine reuses for repeats.
	drew atomic.Bool
}

// NewInjector arms an injector for the given signature at the given dynamic
// instance. rng supplies the intra-buffer randomness (bit position). After
// its shot budget is exhausted the injector passes everything through.
func NewInjector(sig Signature, target int64, rng *stats.RNG) *Injector {
	sig.Feature = sig.Feature.normalize()
	plan, _ := sig.Model.(MultiShot)
	return &Injector{
		sig: sig, host: sig.Model.Host(), target: target, rng: rng,
		shots: sig.ShotBudget(), plan: plan,
		serialDraws: plan != nil,
	}
}

// Disarmed returns an injector that never fires; wrapping with it yields a
// pure pass-through that still counts instances. It is the I/O profiler:
// the profiling pass runs the workload through a disarmed injector and
// takes its Count as the size of the injection target space.
func Disarmed(sig Signature) *Injector {
	return NewInjector(sig, -1, stats.NewRNG(0))
}

// Target returns the dynamic primitive instance that will be corrupted.
func (inj *Injector) Target() int64 { return inj.target }

// Count returns how many instances of the target primitive have executed:
// the executions the injector intercepts and could claim, which excludes
// zero-length transfers. Armed or disarmed, this is the one instance
// counter, so a profiled count and an injection run's indices always agree.
func (inj *Injector) Count() int64 { return inj.count.Load() }

// Fired reports whether the fault has been planted, and the first recorded
// mutation if so — the event's primary record; FiredShots counts the rest.
func (inj *Injector) Fired() (Mutation, bool) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if len(inj.mutations) == 0 {
		return Mutation{}, false
	}
	return inj.mutations[0], true
}

// FiredShots returns how many shots of the budget have been claimed.
func (inj *Injector) FiredShots() int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.fired
}

// claim atomically checks whether this primitive execution is one of the
// event's shots. The dynamic count always advances; a disarmed injector
// (negative target) never fires; instances before the target never fire.
// At or past the target the model's shot plan (default: only the target
// itself) decides, bounded by the remaining budget.
func (inj *Injector) claim() bool {
	idx := inj.count.Add(1) - 1
	if inj.target < 0 || idx < inj.target {
		return false
	}
	rel := idx - inj.target
	if inj.plan == nil && rel != 0 {
		return false
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if inj.fired >= inj.shots {
		return false
	}
	if inj.plan != nil && !inj.plan.Claims(rel) {
		return false
	}
	inj.fired++
	return true
}

func (inj *Injector) record(m Mutation) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.mutations = append(inj.mutations, m)
}

// flip draws the bit position for every flipping caller (write and read
// paths alike) from the injector's per-run stream.
// Single-shot signatures draw lock-free: the claim winner is the only
// goroutine that can ever reach a hook, so the stream is exclusively its
// own. MultiShot plans, whose claimed hooks can overlap on concurrent
// handles, serialize on rngMu — still never queuing behind the
// claim/record bookkeeping guarded by mu.
func (inj *Injector) flip(buf []byte) ([]byte, Mutation) {
	inj.drew.Store(true)
	if inj.serialDraws {
		inj.rngMu.Lock()
		defer inj.rngMu.Unlock()
	}
	return mutateBitFlip(buf, inj.sig.Feature, inj.rng)
}

// env packages the injector state a model hook may touch.
func (inj *Injector) env() Env { return Env{inj: inj} }

// Env is the capability a fault-model hook receives from the injector: the
// normalized feature tunables, the run's private RNG stream, and the
// mutation recorder. Hooks draw all their randomness through Env so
// concurrent handles can never race on the RNG and campaign determinism
// is preserved no matter which model fires.
type Env struct {
	inj *Injector
}

// Feature returns the signature's normalized tunables.
func (e Env) Feature() Feature { return e.inj.sig.Feature }

// Flip returns a copy of buf with Feature().FlipBits consecutive bits
// flipped at a random position, drawing from the injector's RNG under its
// mutex. The returned mutation carries only BitPos and Length; the hook
// stamps Model, Path, and Offset before recording.
func (e Env) Flip(buf []byte) ([]byte, Mutation) { return e.inj.flip(buf) }

// Intn draws a uniform int in [0, n) from the injector's per-run RNG
// stream — lock-free for single-shot signatures (the claim winner owns
// the stream), under the dedicated draw mutex for MultiShot plans.
func (e Env) Intn(n int) int {
	e.inj.drew.Store(true)
	if e.inj.serialDraws {
		e.inj.rngMu.Lock()
		defer e.inj.rngMu.Unlock()
	}
	return e.inj.rng.Intn(n)
}

// Record appends the mutation to the injector's fired record; Fired()
// reports the first one and the campaign runner logs it. Every hook must
// record exactly what it did — an unrecorded shot tallies the run as never
// injected.
func (e Env) Record(m Mutation) { e.inj.record(m) }

// Shot returns the 1-based ordinal of the shot being served: 1 for the
// drawn target instance, 2 for a MultiShot model's second manifestation,
// and so on. Hooks use it to label correlated mutations.
func (e Env) Shot() int {
	e.inj.mu.Lock()
	defer e.inj.mu.Unlock()
	return e.inj.fired
}

// mutateWrite and mutateRead are the injector's only calls into a model
// hook. A hook that panics has a bug of its own, not the application's:
// guard re-panics with a hookPanic naming the model, which runRecovering
// turns into an error that fails the campaign instead of tallying a Crash.
func (inj *Injector) mutateWrite(op WriteOp) WriteAction {
	defer inj.guard()
	return inj.sig.Model.MutateWrite(inj.env(), op)
}

func (inj *Injector) mutateRead(op ReadOp) (int, error) {
	defer inj.guard()
	return inj.sig.Model.MutateRead(inj.env(), op)
}

func (inj *Injector) guard() {
	if r := recover(); r != nil {
		panic(&hookPanic{model: inj.sig.Model.Name(), val: r})
	}
}

// hookPanic is a panic raised inside a model hook, told apart from an
// application panic.
type hookPanic struct {
	model string
	val   any
}

func (p *hookPanic) Error() string {
	return fmt.Sprintf("core: fault model %s panicked in its hook: %v", p.model, p.val)
}

// Wrap returns a file system that behaves exactly like inner except for the
// single corrupted primitive instance.
func (inj *Injector) Wrap(inner vfs.FS) vfs.FS {
	return &InjectorFS{FS: inner, inj: inj}
}

// InjectorFS is the FFIS interposition layer (Figure 2): a drop-in vfs.FS
// whose primitives consult the injector before delegating. The embedded
// FS passes through the primitives no model hosts: MkdirAll, Remove,
// Rename, Stat, ReadDir and Truncate. An embedded interface promotes only the vfs.FS
// methods, so an armed view answers none of the optional interfaces of the
// FS it wraps: it is no vfs.Cloner, Recycler or SimClocked, and
// vfs.Unchanged reports false through it.
type InjectorFS struct {
	vfs.FS
	inj *Injector
}

func (f *InjectorFS) wrapFile(file vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	// fs is the uninstrumented FS beneath the injector, addressed by the
	// same paths the application used: models that need a side handle onto the file being read or written
	// (latent corruption's at-rest mutation) open it here without
	// re-entering the injector.
	return &injectorFile{File: file, inj: f.inj, fs: f.FS}, nil
}

// Create delegates and wraps the returned handle.
func (f *InjectorFS) Create(name string) (vfs.File, error) {
	return f.wrapFile(f.FS.Create(name))
}

// Open delegates and wraps the returned handle.
func (f *InjectorFS) Open(name string) (vfs.File, error) {
	return f.wrapFile(f.FS.Open(name))
}

// Append delegates and wraps the returned handle.
func (f *InjectorFS) Append(name string) (vfs.File, error) {
	return f.wrapFile(f.FS.Append(name))
}

// injectorFile interposes on the data path of a single handle. This is the
// Go rendering of Figure 3a: the (buffer, size, offset) triple passed to
// FFIS_write (or returned by FFIS_read) is handed to the armed model's hook
// before reaching the other side. fs is the uninstrumented view of the same
// storage, exposed to read hooks for at-rest mutation.
type injectorFile struct {
	vfs.File
	inj *Injector
	fs  vfs.FS
}

// Write intercepts the sequential write primitive. Zero-length buffers pass
// through without claiming: an empty write mutates nothing, so burning the
// injector's single shot on it would tally a run as injected when no fault
// ever reached the device.
func (f *injectorFile) Write(p []byte) (int, error) {
	if f.inj.host != vfs.PrimWrite || len(p) == 0 || !f.inj.claim() {
		return f.File.Write(p)
	}
	off, err := f.File.Seek(0, io.SeekCurrent)
	if err != nil {
		// Without the real offset a block- or sector-aligned corruption
		// plan would be computed against a fabricated device position;
		// fail the write rather than corrupt the wrong bytes.
		return 0, fmt.Errorf("core: injector: device offset unknown for armed write: %w", err)
	}
	act := f.inj.mutateWrite(WriteOp{File: f.File, Path: f.File.Name(), Buf: p, Off: off})
	if act.Err != nil {
		// The device refused the write: nothing persisted, nothing
		// acknowledged, the sequential offset stays put.
		return 0, act.Err
	}
	if act.Skip {
		// The device dropped (or misdirected) the write but acknowledged
		// it: place the sequential offset at the absolute post-write
		// position so subsequent writes land where the application
		// believes they will. The seek must be absolute — the model hook
		// holds the live handle and may have moved it (a misdirected
		// write persisting the buffer elsewhere), so a relative
		// Seek(len(p), io.SeekCurrent) would advance from wherever the
		// hook parked the handle instead of from the intercepted offset.
		if _, err := f.File.Seek(off+int64(len(p)), io.SeekStart); err != nil {
			return 0, err
		}
		return len(p), nil
	}
	n, err := f.File.Write(act.Buf)
	if n > len(p) {
		n = len(p)
	}
	return n, err
}

// WriteAt intercepts the positional write primitive (pwrite).
func (f *injectorFile) WriteAt(p []byte, off int64) (int, error) {
	if f.inj.host != vfs.PrimWrite || len(p) == 0 || !f.inj.claim() {
		return f.File.WriteAt(p, off)
	}
	act := f.inj.mutateWrite(WriteOp{File: f.File, Path: f.File.Name(), Buf: p, Off: off})
	if act.Err != nil {
		return 0, act.Err
	}
	if act.Skip {
		return len(p), nil
	}
	n, err := f.File.WriteAt(act.Buf, off)
	if n > len(p) {
		n = len(p)
	}
	return n, err
}

// Read intercepts the sequential read primitive: the mirror of FFIS_write
// for faults that surface when data is consumed. Zero-length buffers pass
// through without claiming, like the write path.
func (f *injectorFile) Read(p []byte) (int, error) {
	if f.inj.host != vfs.PrimRead || len(p) == 0 || !f.inj.claim() {
		return f.File.Read(p)
	}
	off, offErr := f.File.Seek(0, io.SeekCurrent)
	if offErr != nil {
		off = -1
	}
	return f.inj.mutateRead(ReadOp{
		File: f.File, FS: f.fs, Path: f.File.Name(),
		Buf: p, Off: off, OffErr: offErr,
		Do: func(q []byte) (int, error) { return f.File.Read(q) },
	})
}

// ReadAt intercepts the positional read primitive (pread).
func (f *injectorFile) ReadAt(p []byte, off int64) (int, error) {
	if f.inj.host != vfs.PrimRead || len(p) == 0 || !f.inj.claim() {
		return f.File.ReadAt(p, off)
	}
	return f.inj.mutateRead(ReadOp{
		File: f.File, FS: f.fs, Path: f.File.Name(),
		Buf: p, Off: off,
		Do: func(q []byte) (int, error) { return f.File.ReadAt(q, off) },
	})
}

var (
	_ vfs.FS   = (*InjectorFS)(nil)
	_ vfs.File = (*injectorFile)(nil)
)
