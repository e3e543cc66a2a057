package core

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ffis/internal/classify"
	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// The registry conformance suite: every registered model — built-in or
// added later — must satisfy the contract the campaign machinery assumes.
// A new model that registers but breaks identity uniqueness, claims shots
// it never records, fires on a primitive other than its Host, burns its
// shot on zero-length I/O, or mutates non-deterministically under a fixed
// RNG stream fails here, before any campaign tallies nonsense.

// conformancePrims is the set of primitives the injector intercepts; a
// Host outside it could never fire, and Register refuses it.
var conformancePrims = []vfs.Primitive{vfs.PrimWrite, vfs.PrimRead}

// recordedMutations copies every mutation the injector recorded, in firing
// order.
func recordedMutations(inj *Injector) []Mutation {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return append([]Mutation(nil), inj.mutations...)
}

// conformanceWorld builds a base world with a seeded victim file for the
// read and truncate exercises.
func conformanceWorld(t *testing.T) vfs.FS {
	t.Helper()
	base := vfs.NewMemFS()
	payload := bytes.Repeat([]byte{0xC3, 0x5A, 0x0F, 0x99}, 2048) // 8 KiB
	if err := vfs.WriteFile(base, "/victim", payload); err != nil {
		t.Fatal(err)
	}
	return base
}

// exercisePrimitive performs one dynamic instance of prim through fs,
// against path. Errors from the primitive itself are returned (some models
// fail the op by design — unreadable sectors); setup errors are fatal.
func exercisePrimitive(t *testing.T, fs vfs.FS, prim vfs.Primitive, path string) error {
	t.Helper()
	switch prim {
	case vfs.PrimWrite:
		f, err := fs.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		_, werr := f.Write(bytes.Repeat([]byte{0xAB}, 4096))
		return werr
	case vfs.PrimRead:
		f, err := fs.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		_, rerr := f.Read(make([]byte, 1024))
		return rerr
	case vfs.PrimTruncate:
		return fs.Truncate(path, 100)
	default:
		t.Fatalf("conformance: no exercise for primitive %s", prim)
		return nil
	}
}

// primTarget returns the path exercisePrimitive operates on for prim: the
// write path creates its own file, everything else hits the seeded victim.
func primTarget(prim vfs.Primitive) string {
	if prim == vfs.PrimWrite {
		return "/fresh"
	}
	return "/victim"
}

func TestConformanceUniqueIdentity(t *testing.T) {
	names := map[string]string{}
	shorts := map[string]string{}
	for _, m := range AllModels() {
		name, short := m.Name(), m.Short()
		if name == "" || short == "" {
			t.Errorf("%T has empty identity", m)
		}
		if prev, dup := names[strings.ToLower(name)]; dup {
			t.Errorf("duplicate model name %q (%s)", name, prev)
		}
		if prev, dup := shorts[strings.ToLower(short)]; dup {
			t.Errorf("duplicate short code %q (%s vs %s)", short, prev, name)
		}
		names[strings.ToLower(name)] = name
		shorts[strings.ToLower(short)] = name
		// Both identities must round-trip through the shared parser,
		// case-insensitively.
		for _, key := range []string{name, short, strings.ToUpper(name), strings.ToLower(short)} {
			got, err := ParseModel(key)
			if err != nil || got != m {
				t.Errorf("ParseModel(%q) = %v, %v; want %s", key, got, err, name)
			}
		}
	}
}

// TestConformanceHostsWithinInjectorSurface asserts that every registered
// model hosts a primitive the injector intercepts, and that Register
// refuses one that does not — without leaving it in the registry.
func TestConformanceHostsWithinInjectorSurface(t *testing.T) {
	for _, m := range AllModels() {
		if !slices.Contains(conformancePrims, m.Host()) {
			t.Errorf("%s hosts %s, which the injector never intercepts", m.Name(), m.Host())
		}
	}
	func() {
		defer func() {
			r := recover()
			if r == nil || !strings.Contains(fmt.Sprint(r), "stat") {
				t.Errorf("Register of a stat-hosted model: recovered %v, want a panic naming stat", r)
			}
		}()
		Register(statHostModel{})
	}()
	if m, ok := Lookup(statHostModel{}.Name()); ok {
		t.Fatalf("a refused model is still registered: %s", m.Name())
	}
	if slices.ContainsFunc(AllModels(), func(m Model) bool { return m.Name() == statHostModel{}.Name() }) {
		t.Fatal("a refused model is still listed")
	}
}

// TestConformanceHostsFire asserts the positive half of the Host contract:
// arming a model at target 0 and executing one instance of its host must
// fire and record a mutation stamped with the model.
func TestConformanceHostsFire(t *testing.T) {
	for _, m := range AllModels() {
		prim := m.Host()
		t.Run(m.Name()+"/"+string(prim), func(t *testing.T) {
			base := conformanceWorld(t)
			sig := Config{Model: m}.Signature()
			if err := sig.Validate(); err != nil {
				t.Fatalf("signature rejected: %v", err)
			}
			inj := NewInjector(sig, 0, stats.NewRNG(99))
			exercisePrimitive(t, inj.Wrap(base), prim, primTarget(prim))
			if inj.Count() == 0 {
				t.Fatalf("injector never saw the %s instance", prim)
			}
			mut, fired := inj.Fired()
			if !fired {
				t.Fatalf("%s claims to host %s but the claimed shot recorded nothing", m.Name(), prim)
			}
			if mut.Model != m {
				t.Fatalf("mutation stamped with %v, want %s", mut.Model, m.Name())
			}
			if mut.String() == "" {
				t.Fatal("mutation renders empty")
			}
		})
	}
}

// TestConformanceUnhostedPassThrough asserts the negative half: a
// write-hosted model leaves reads transparent, a read-hosted model leaves
// writes transparent, and no model faults a truncate, which the injector
// passes to the FS beneath it. None records a fault.
func TestConformanceUnhostedPassThrough(t *testing.T) {
	for _, m := range AllModels() {
		for _, prim := range append(slices.Clone(conformancePrims), vfs.PrimTruncate) {
			if prim == m.Host() {
				continue
			}
			t.Run(m.Name()+"/"+string(prim), func(t *testing.T) {
				base := conformanceWorld(t)
				before, err := vfs.ReadFile(base, "/victim")
				if err != nil {
					t.Fatal(err)
				}
				inj := NewInjector(Config{Model: m}.Signature(), 0, stats.NewRNG(99))
				if err := exercisePrimitive(t, inj.Wrap(base), prim, primTarget(prim)); err != nil {
					t.Fatalf("pass-through %s failed: %v", prim, err)
				}
				if mut, fired := inj.Fired(); fired {
					t.Fatalf("unhosted primitive recorded a mutation: %s", mut)
				}
				switch prim {
				case vfs.PrimWrite:
					got, err := vfs.ReadFile(base, "/fresh")
					if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{0xAB}, 4096)) {
						t.Fatal("pass-through write altered data")
					}
				case vfs.PrimRead:
					if got, err := vfs.ReadFile(base, "/victim"); err != nil || !bytes.Equal(got, before) {
						t.Fatal("pass-through read altered the stored bytes")
					}
				case vfs.PrimTruncate:
					if got, err := vfs.ReadFile(base, "/victim"); err != nil || !bytes.Equal(got, before[:100]) {
						t.Fatal("pass-through truncate did not resize exactly")
					}
				}
			})
		}
	}
}

// panicHookModel is a write model whose hook panics. It stays unregistered
// so the registry, and every suite looping over it, never sees it.
type panicHookModel struct{ BaseModel }

func (panicHookModel) Name() string        { return "panic-hook" }
func (panicHookModel) Short() string       { return "PH" }
func (panicHookModel) Host() vfs.Primitive { return vfs.PrimWrite }
func (panicHookModel) Describe() string    { return "panics in its write hook (test-only, unregistered)" }
func (panicHookModel) MutateWrite(Env, WriteOp) WriteAction {
	panic("hook bug")
}

// TestConformanceHookPanicFailsCampaign pins that a panic inside a model
// hook is the model's bug, not the application's: the campaign fails with
// an error naming the model, and no run is tallied or recorded as a Crash.
func TestConformanceHookPanicFailsCampaign(t *testing.T) {
	w := Workload{
		Name: "one-write",
		Run:  func(fs vfs.FS) error { return vfs.WriteFile(fs, "/out", []byte("payload")) },
		Classify: func(fs vfs.FS, runErr error) classify.Outcome {
			if runErr != nil {
				return classify.Crash
			}
			return classify.Benign
		},
	}
	sink := &collectSink{}
	grid := (&Engine{Jobs: 2}).Run([]CampaignSpec{{
		Key: "panic", Workload: w,
		Config: CampaignConfig{Fault: Config{Model: panicHookModel{}}, Runs: 6, Seed: 1, Sink: sink},
	}})
	err := grid[0].Err
	if err == nil || !strings.Contains(err.Error(), "panic-hook") {
		t.Fatalf("Engine.Run err = %v (tally %s), want an error naming panic-hook",
			err, grid[0].Result.Tally.String())
	}
	if len(sink.records) != 0 {
		t.Fatalf("%d records reached the sink, want none: %+v", len(sink.records), sink.records)
	}
}

// TestConformanceSingleShot asserts primary-claim semantics: the target
// index selects the first struck dynamic instance, instances before it pass
// through, and the dynamic count keeps advancing afterwards. For MultiShot
// models this pins the event's primary shot; TestConformanceShotBudget
// covers the rest of their budget.
func TestConformanceSingleShot(t *testing.T) {
	for _, m := range AllModels() {
		prim := m.Host()
		t.Run(m.Name(), func(t *testing.T) {
			paths := []string{"/victim", "/victim2"}
			for target, wantPath := range paths {
				base := conformanceWorld(t)
				payload := bytes.Repeat([]byte{0x11}, 8192)
				if err := vfs.WriteFile(base, "/victim2", payload); err != nil {
					t.Fatal(err)
				}
				if prim == vfs.PrimWrite {
					// The write exercise creates its target; give each
					// instance its own destination file.
					paths = []string{"/fresh", "/fresh2"}
					wantPath = paths[target]
				}
				inj := NewInjector(Config{Model: m}.Signature(), int64(target), stats.NewRNG(5))
				fs := inj.Wrap(base)
				for _, p := range paths {
					exercisePrimitive(t, fs, prim, p)
				}
				mut, fired := inj.Fired()
				if !fired {
					t.Fatalf("target %d never fired", target)
				}
				if mut.Path != wantPath {
					t.Fatalf("target %d struck %s, want %s", target, mut.Path, wantPath)
				}
				if got := inj.Count(); got != int64(len(paths)) {
					t.Fatalf("count = %d, want %d (later instances must still be counted)", got, len(paths))
				}
			}
		})
	}
}

// TestConformanceZeroLengthIO asserts that zero-length reads and writes
// never consume the single shot: the fault must land on I/O that actually
// moves bytes.
func TestConformanceZeroLengthIO(t *testing.T) {
	for _, m := range AllModels() {
		prim := m.Host()
		t.Run(m.Name()+"/"+string(prim), func(t *testing.T) {
			base := conformanceWorld(t)
			inj := NewInjector(Config{Model: m}.Signature(), 0, stats.NewRNG(5))
			fs := inj.Wrap(base)
			if prim == vfs.PrimWrite {
				f, err := fs.Create("/z")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(nil); err != nil {
					t.Fatal(err)
				}
				f.Close()
			} else {
				f, err := fs.Open("/victim")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Read([]byte{}); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}
			if inj.Count() != 0 {
				t.Fatal("zero-length I/O consumed the claim counter")
			}
			if _, fired := inj.Fired(); fired {
				t.Fatal("zero-length I/O fired the shot")
			}
			if inj.FiredShots() != 0 {
				t.Fatal("zero-length I/O consumed shot budget")
			}
			// The next real instance must still be corruptible.
			exercisePrimitive(t, fs, prim, primTarget(prim))
			if _, fired := inj.Fired(); !fired {
				t.Fatal("shot was not preserved for the first real instance")
			}
		})
	}
}

// exerciseInstances performs n dynamic instances of the model's host
// primitive through fs (write: n Write calls on one handle; read: n Read
// calls), ignoring per-op errors — some models fail ops by design.
func exerciseInstances(t *testing.T, fs vfs.FS, prim vfs.Primitive, n int) {
	t.Helper()
	switch prim {
	case vfs.PrimWrite:
		f, err := fs.Create("/burstfile")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		buf := bytes.Repeat([]byte{0x5C}, 4096)
		for i := 0; i < n; i++ {
			f.Write(buf)
		}
	case vfs.PrimRead:
		f, err := fs.Open("/victim")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		buf := make([]byte, 1024)
		for i := 0; i < n; i++ {
			f.Read(buf)
		}
	default:
		t.Fatalf("conformance: no instance loop for primitive %s", prim)
	}
}

// expectedClaims replays the injector's claim algebra in the open: given
// the model's shot plan and a budget, how many of n instances from the
// target on must fire.
func expectedClaims(m Model, budget, n int) int {
	plan, multi := m.(MultiShot)
	fired := 0
	for rel := int64(0); rel < int64(n); rel++ {
		if fired >= budget {
			break
		}
		if multi {
			if plan.Claims(rel) {
				fired++
			}
		} else if rel == 0 {
			fired++
		}
	}
	return fired
}

// TestConformanceShotBudget asserts the multi-shot accounting contract over
// every registered model: exactly the shots the model's plan selects fire —
// never more than the budget — and every fired shot leaves a mutation
// record. Single-manifestation models must fire exactly once regardless of
// any budget override: a budget is capacity, not a claim plan.
func TestConformanceShotBudget(t *testing.T) {
	const instances = 24
	for _, m := range AllModels() {
		prim := m.Host()
		for _, shots := range []int{0, 1, 2} { // 0 = model default
			t.Run(fmt.Sprintf("%s/shots=%d", m.Name(), shots), func(t *testing.T) {
				base := conformanceWorld(t)
				sig := Config{Model: m, Shots: shots}.Signature()
				inj := NewInjector(sig, 0, stats.NewRNG(7))
				exerciseInstances(t, inj.Wrap(base), prim, instances)
				want := expectedClaims(m, sig.ShotBudget(), instances)
				if got := inj.FiredShots(); got != want {
					t.Fatalf("fired %d shots, want %d (budget %d over %d instances)",
						got, want, sig.ShotBudget(), instances)
				}
				if muts := recordedMutations(inj); len(muts) != want {
					t.Fatalf("recorded %d mutations for %d fired shots — every shot must Record",
						len(muts), want)
				}
				if got := inj.Count(); got != instances {
					t.Fatalf("count = %d, want %d (instances past the budget must still be counted)",
						got, instances)
				}
			})
		}
	}
}

// TestConformanceBudgetExhaustionRestoresTransparency asserts that once the
// budget is spent the injector is a pure pass-through again: a DeviceFailure
// capped at 2 shots refuses exactly two writes, then the device "recovers"
// and later writes both succeed and persist intact.
func TestConformanceBudgetExhaustionRestoresTransparency(t *testing.T) {
	base := conformanceWorld(t)
	sig := Config{Model: MustModel("device-failure"), Shots: 2}.Signature()
	inj := NewInjector(sig, 0, stats.NewRNG(7))
	f, err := inj.Wrap(base).Create("/cap")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := bytes.Repeat([]byte{0xEE}, 512)
	for i := 0; i < 2; i++ {
		if _, err := f.Write(buf); err == nil {
			t.Fatalf("write %d succeeded inside the failure window", i)
		}
	}
	if _, err := f.Write(buf); err != nil {
		t.Fatalf("write after budget exhaustion failed: %v", err)
	}
	if got, err := vfs.ReadFile(base, "/cap"); err != nil || !bytes.Equal(got, buf) {
		t.Fatalf("post-budget write did not persist intact: %v", err)
	}
	if inj.FiredShots() != 2 {
		t.Fatalf("fired %d shots, want exactly the budget of 2", inj.FiredShots())
	}
}

// TestConformanceDeterministicMutation asserts that a model's corruption is
// a pure function of the RNG stream: identical seeds must give identical
// mutation records and identical post-fault file bytes.
func TestConformanceDeterministicMutation(t *testing.T) {
	for _, m := range AllModels() {
		prim := m.Host()
		t.Run(m.Name()+"/"+string(prim), func(t *testing.T) {
			run := func() (Mutation, []byte) {
				base := conformanceWorld(t)
				inj := NewInjector(Config{Model: m}.Signature(), 0, stats.NewRNG(12345))
				exercisePrimitive(t, inj.Wrap(base), prim, primTarget(prim))
				mut, fired := inj.Fired()
				if !fired {
					t.Fatal("shot never fired")
				}
				data, err := vfs.ReadFile(base, mut.Path)
				if err != nil {
					data = nil // a dropped creation has no bytes
				}
				return mut, data
			}
			m1, d1 := run()
			m2, d2 := run()
			// DeepEqual, not ==: a registered model whose struct type
			// has uncomparable fields must fail this suite with a diff,
			// not a comparison panic.
			if !reflect.DeepEqual(m1, m2) {
				t.Fatalf("mutation not deterministic:\n  %+v\n  %+v", m1, m2)
			}
			if !bytes.Equal(d1, d2) {
				t.Fatal("post-fault bytes not deterministic")
			}
		})
	}
}

// hookOutcome is everything one direct hook call produced: the action it
// returned, the mutations it recorded, the victim file's bytes afterwards,
// and whether it drew from the run's RNG stream.
type hookOutcome struct {
	action    any
	mutations []Mutation
	victim    []byte
	drew      bool
}

// callHook claims one shot of m and calls its hook directly on a fixed op
// against the conformance world's victim file.
func callHook(t *testing.T, m Model, seed uint64) hookOutcome {
	t.Helper()
	base := conformanceWorld(t)
	inj := NewInjector(Config{Model: m}.Signature(), 0, stats.NewRNG(seed))
	if !inj.claim() {
		t.Fatal("target 0 did not claim")
	}
	env := inj.env()
	var action any
	switch prim := m.Host(); prim {
	case vfs.PrimWrite:
		f, err := base.Append("/victim")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		action = m.MutateWrite(env, WriteOp{File: f, Path: "/victim", Buf: bytes.Repeat([]byte{0xAB}, 4096), Off: 1024})
	case vfs.PrimRead:
		f, err := base.Open("/victim")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		buf := make([]byte, 1024)
		n, err := m.MutateRead(env, ReadOp{File: f, FS: base, Path: "/victim", Buf: buf, Off: 512,
			Do: func(p []byte) (int, error) { return f.ReadAt(p, 512) }})
		action = []any{n, err, buf}
	default:
		t.Fatalf("conformance: no hook for primitive %s", prim)
	}
	victim, err := vfs.ReadFile(base, "/victim")
	if err != nil {
		t.Fatal(err)
	}
	return hookOutcome{action: action, mutations: recordedMutations(inj), victim: victim, drew: inj.drew.Load()}
}

// TestConformanceDrawFreeHooksArePure pins the contract the Engine's
// record reuse rests on: a hook that makes no Env draw acts as a pure
// function of its op. Every registered model's hook is called twice on
// identical ops under two different RNG streams; whenever
// the hook drew nothing, action, recorded mutations and post-hook bytes
// must be identical.
func TestConformanceDrawFreeHooksArePure(t *testing.T) {
	var pure, drawing int
	for _, m := range AllModels() {
		t.Run(m.Name()+"/"+string(m.Host()), func(t *testing.T) {
			a, b := callHook(t, m, 1), callHook(t, m, 0xdecafbad)
			if a.drew != b.drew {
				t.Fatalf("the hook drew under one stream and not the other (%v vs %v)", a.drew, b.drew)
			}
			if a.drew {
				drawing++
				return
			}
			pure++
			if !reflect.DeepEqual(a.action, b.action) {
				t.Fatalf("draw-free hook returned different actions:\n  %+v\n  %+v", a.action, b.action)
			}
			if !reflect.DeepEqual(a.mutations, b.mutations) {
				t.Fatalf("draw-free hook recorded different mutations:\n  %+v\n  %+v", a.mutations, b.mutations)
			}
			if !bytes.Equal(a.victim, b.victim) {
				t.Fatal("draw-free hook left different bytes behind")
			}
		})
	}
	if pure == 0 || drawing == 0 {
		t.Fatalf("%d draw-free and %d drawing hooks: the suite must see both kinds", pure, drawing)
	}
}

// TestConformanceHooksLeaveWriteBufferIntact pins the WriteOp.Buf
// contract that applications writing kept bytes rest on (Montage's kept
// encodings, QMCPACK's golden scalar files): for every write-hosting model,
// fired and unfired, under two RNG streams, a Write and a WriteAt leave
// the caller's buffer, and the spare capacity behind it, byte-identical.
func TestConformanceHooksLeaveWriteBufferIntact(t *testing.T) {
	const n = 3 * 2880 // three FITS blocks: across a 4 KiB device block
	pattern := make([]byte, 2*n)
	for i := range pattern {
		pattern[i] = byte(7*i + i/251)
	}
	for _, m := range AllModels() {
		if m.Host() != vfs.PrimWrite {
			continue
		}
		sig := Config{Model: m}.Signature()
		for _, seed := range []uint64{1, 0xdecafbad} {
			for _, target := range []int64{0, 1 << 40} {
				for _, at := range []bool{false, true} {
					name := fmt.Sprintf("%s/seed=%d/target=%d/at=%v", m.Name(), seed, target, at)
					inj := NewInjector(sig, target, stats.NewRNG(seed))
					fs := inj.Wrap(conformanceWorld(t))
					backing := bytes.Clone(pattern)
					buf := backing[:n]
					var err error
					if at {
						// Over the victim's existing bytes and past its end.
						f, ferr := fs.Append("/victim")
						if ferr != nil {
							t.Fatal(ferr)
						}
						_, err = f.WriteAt(buf, 1024)
						f.Close()
					} else {
						f, ferr := fs.Create("/fresh")
						if ferr != nil {
							t.Fatal(ferr)
						}
						_, err = f.Write(buf)
						f.Close()
					}
					if _, fired := inj.Fired(); fired != (target == 0) {
						t.Fatalf("%s: fired %v (write error %v)", name, fired, err)
					}
					if !bytes.Equal(backing, pattern) {
						t.Errorf("%s: the write changed the caller's buffer", name)
					}
				}
			}
		}
	}
}

// TestConformanceAllocFreePassThrough pins the hot-path allocation
// discipline the campaign engine's throughput rests on: an armed-but-not-
// yet-fired injector op and a profiled (Disarmed injector) op must not
// allocate. Both paths are a single atomic add on the dynamic count. Any
// model or wrapper change that puts an allocation (or a lock-induced
// escape) on these paths fails here rather than showing up as a campaign
// slowdown.
func TestConformanceAllocFreePassThrough(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	buf := make([]byte, 4096)
	rd := make([]byte, 4096)

	openHandles := func(fs vfs.FS) (vfs.File, vfs.File) {
		t.Helper()
		w, err := fs.Create("/f")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.WriteAt(buf, 0); err != nil {
			t.Fatal(err)
		}
		r, err := fs.Open("/f")
		if err != nil {
			t.Fatal(err)
		}
		return w, r
	}

	assertZero := func(name string, fn func()) {
		t.Helper()
		if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}

	// Armed injector, target far beyond the op count: every op is a miss
	// and must stay a pure pass-through.
	for _, m := range AllModels() {
		sig := Signature{Model: m}
		inj := NewInjector(sig, 1<<40, stats.NewRNG(1))
		fs := inj.Wrap(vfs.NewMemFS())
		w, r := openHandles(fs)
		assertZero(m.Name()+"/armed WriteAt", func() {
			if _, err := w.WriteAt(buf, 0); err != nil {
				t.Fatal(err)
			}
		})
		assertZero(m.Name()+"/armed ReadAt", func() {
			if _, err := r.ReadAt(rd, 0); err != nil {
				t.Fatal(err)
			}
		})
		w.Close()
		r.Close()
	}

	// Profiled ops: the profiling pass runs through a Disarmed injector,
	// which adds one atomic add on the target primitive and nothing else.
	pfs := Disarmed(Config{Model: BitFlip}.Signature()).Wrap(vfs.NewMemFS())
	w, r := openHandles(pfs)
	defer w.Close()
	defer r.Close()
	assertZero("profiled WriteAt", func() {
		if _, err := w.WriteAt(buf, 0); err != nil {
			t.Fatal(err)
		}
	})
	assertZero("profiled ReadAt", func() {
		if _, err := r.ReadAt(rd, 0); err != nil {
			t.Fatal(err)
		}
	})
	assertZero("profiled Stat", func() {
		if _, err := pfs.Stat("/f"); err != nil {
			t.Fatal(err)
		}
	})
}
