package core

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"ffis/internal/stats"
	"ffis/internal/vfs"
)

func newWriteInjector(model Model, target int64, seed uint64) *Injector {
	sig := Config{Model: model}.Signature()
	return NewInjector(sig, target, stats.NewRNG(seed))
}

func TestDisarmedInjectorIsTransparent(t *testing.T) {
	base := vfs.NewMemFS()
	fs := Disarmed(Config{Model: BitFlip}.Signature()).Wrap(base)
	payload := bytes.Repeat([]byte{0x5A}, 8192)
	if err := vfs.WriteFile(fs, "/f", payload); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(base, "/f")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatal("disarmed injector altered data")
	}
}

// TestDisarmedInjectorDelegatesContent: profiling must be transparent
// (requirement R1) in both directions: what is written through the disarmed
// layer lands unchanged in the bare FS and reads back unchanged through it.
func TestDisarmedInjectorDelegatesContent(t *testing.T) {
	inner := vfs.NewMemFS()
	fs := Disarmed(Config{Model: ReadBitFlip}.Signature()).Wrap(inner)
	if err := vfs.WriteFile(fs, "/f", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, err := vfs.ReadFile(inner, "/f")
	if err != nil || string(got) != "payload" {
		t.Fatalf("inner content: %v %q", err, got)
	}
	got, err = vfs.ReadFile(fs, "/f")
	if err != nil || string(got) != "payload" {
		t.Fatalf("content through disarmed layer: %v %q", err, got)
	}
}

// The profiler is a Disarmed injector, so the tests below pin its count
// rule: what counts as one dynamic instance of the target primitive.

// TestDisarmedCountTracksWrites: sequential and positional writes are both
// instances of the write primitive; the create that opens the file is not.
func TestDisarmedCountTracksWrites(t *testing.T) {
	inj := Disarmed(Signature{Model: BitFlip})
	f, err := inj.Wrap(vfs.NewMemFS()).Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	if got := inj.Count(); got != 0 {
		t.Fatalf("create counted as %d write instances, want 0", got)
	}
	f.Write([]byte("a"))
	f.Write([]byte("b"))
	f.WriteAt([]byte("c"), 0)
	f.Close()
	if got := inj.Count(); got != 3 {
		t.Fatalf("write count = %d, want 3", got)
	}
}

// TestDisarmedCountsEveryInterceptedPrimitive profiles each primitive the
// injector intercepts through a model hosting it. A truncate is an
// instance of neither.
func TestDisarmedCountsEveryInterceptedPrimitive(t *testing.T) {
	for _, m := range []Model{BitFlip, ReadBitFlip} {
		prim := m.Host()
		inj := Disarmed(Signature{Model: m})
		fs := inj.Wrap(conformanceWorld(t))
		exercisePrimitive(t, fs, prim, primTarget(prim))
		if got := inj.Count(); got != 1 {
			t.Errorf("%s counted %d instances, want 1", prim, got)
		}
		if err := fs.Truncate("/victim", 100); err != nil {
			t.Fatal(err)
		}
		if got := inj.Count(); got != 1 {
			t.Errorf("a truncate moved the %s count to %d, want 1", prim, got)
		}
	}
}

func TestDisarmedCountConcurrent(t *testing.T) {
	inj := Disarmed(Config{Model: BitFlip}.Signature())
	fs := inj.Wrap(vfs.NewMemFS())
	var wg sync.WaitGroup
	const workers, writesPer = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			f, err := fs.Create("/f" + string(rune('0'+id)))
			if err != nil {
				t.Error(err)
				return
			}
			defer f.Close()
			for i := 0; i < writesPer; i++ {
				f.Write([]byte("x"))
			}
		}(w)
	}
	wg.Wait()
	if got := inj.Count(); got != workers*writesPer {
		t.Fatalf("write count = %d, want %d", got, workers*writesPer)
	}
}

// TestDisarmedCountSkipsZeroLengthTransfers: an empty transfer has nothing
// to corrupt, so it is not an instance of the write or read primitive.
func TestDisarmedCountSkipsZeroLengthTransfers(t *testing.T) {
	writes := Disarmed(Signature{Model: BitFlip})
	reads := Disarmed(Signature{Model: ReadBitFlip})
	f, err := reads.Wrap(writes.Wrap(vfs.NewMemFS())).Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	f.Write(nil)             // not an instance
	f.WriteAt([]byte{}, 0)   // not an instance
	f.Write([]byte("abc"))   // instance 0
	f.WriteAt([]byte{1}, 10) // instance 1
	buf := make([]byte, 4)
	f.ReadAt(buf, 0) // instance 0
	f.ReadAt(nil, 0) // not an instance
	f.Read(buf[:0])  // not an instance
	f.Read(buf)      // instance 1
	f.Close()
	if got := writes.Count(); got != 2 {
		t.Fatalf("write count = %d, want 2 (zero-length writes counted)", got)
	}
	if got := reads.Count(); got != 2 {
		t.Fatalf("read count = %d, want 2 (zero-length reads counted)", got)
	}
}

func TestBitFlipCorruptsExactlyOneWrite(t *testing.T) {
	base := vfs.NewMemFS()
	inj := newWriteInjector(BitFlip, 1, 7) // corrupt the 2nd write
	fs := inj.Wrap(base)

	f, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	chunk := bytes.Repeat([]byte{0xFF}, 256)
	for i := 0; i < 4; i++ {
		if _, err := f.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	f.Close()

	got, _ := vfs.ReadFile(base, "/f")
	if len(got) != 1024 {
		t.Fatalf("size = %d", len(got))
	}
	diffs := 0
	region := -1
	for i, b := range got {
		if b != 0xFF {
			diffs += popcount(b ^ 0xFF)
			region = i / 256
		}
	}
	if diffs != 2 {
		t.Fatalf("flipped %d bits total, want 2", diffs)
	}
	if region != 1 {
		t.Fatalf("corruption landed in write %d, want write 1", region)
	}
	mut, fired := inj.Fired()
	if !fired || mut.Model != BitFlip || mut.Path != "/f" {
		t.Fatalf("mutation record: %+v fired=%v", mut, fired)
	}
	if inj.Count() != 4 {
		t.Fatalf("counted %d writes, want 4", inj.Count())
	}
}

func TestBitFlipOnWriteAt(t *testing.T) {
	base := vfs.NewMemFS()
	inj := newWriteInjector(BitFlip, 0, 3)
	fs := inj.Wrap(base)
	f, _ := fs.Create("/f")
	orig := bytes.Repeat([]byte{0x00}, 512)
	if _, err := f.WriteAt(orig, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, _ := vfs.ReadFile(base, "/f")
	diffs := 0
	for _, b := range got {
		diffs += popcount(b)
	}
	if diffs != 2 {
		t.Fatalf("WriteAt flip count = %d", diffs)
	}
	mut, _ := inj.Fired()
	if mut.Offset != 0 || mut.Length != 512 {
		t.Fatalf("mutation: %+v", mut)
	}
}

func TestDroppedWriteLeavesHole(t *testing.T) {
	base := vfs.NewMemFS()
	inj := newWriteInjector(DroppedWrite, 1, 5)
	fs := inj.Wrap(base)
	f, _ := fs.Create("/f")
	for i := 0; i < 3; i++ {
		chunk := bytes.Repeat([]byte{byte('A' + i)}, 100)
		n, err := f.Write(chunk)
		if err != nil || n != 100 {
			t.Fatalf("write %d: n=%d err=%v (dropped write must still report success)", i, n, err)
		}
	}
	f.Close()
	got, _ := vfs.ReadFile(base, "/f")
	if len(got) != 300 {
		t.Fatalf("file size = %d, want 300 (offset must advance)", len(got))
	}
	if got[0] != 'A' || got[250] != 'C' {
		t.Fatalf("neighbouring writes corrupted: %q %q", got[0], got[250])
	}
	for i := 100; i < 200; i++ {
		if got[i] != 0 {
			t.Fatalf("dropped region has data at %d: %v", i, got[i])
		}
	}
}

func TestDroppedWriteAtReportsSuccess(t *testing.T) {
	base := vfs.NewMemFS()
	inj := newWriteInjector(DroppedWrite, 0, 5)
	fs := inj.Wrap(base)
	f, _ := fs.Create("/f")
	n, err := f.WriteAt(bytes.Repeat([]byte{1}, 64), 0)
	if err != nil || n != 64 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	f.Close()
	if size, _ := base.Stat("/f"); size.Size != 0 {
		t.Fatalf("dropped WriteAt persisted %d bytes", size.Size)
	}
}

func TestShornWriteKeepsLeadingFraction(t *testing.T) {
	base := vfs.NewMemFS()
	inj := newWriteInjector(ShornWrite, 0, 11)
	fs := inj.Wrap(base)
	f, _ := fs.Create("/f")
	buf := bytes.Repeat([]byte{0xAB}, 4096)
	n, err := f.Write(buf)
	if err != nil || n != 4096 {
		t.Fatalf("n=%d err=%v (shorn write must report full size)", n, err)
	}
	f.Close()
	got, _ := vfs.ReadFile(base, "/f")
	if len(got) != 4096 {
		t.Fatalf("size = %d, want 4096", len(got))
	}
	for i := 0; i < 3584; i++ {
		if got[i] != 0xAB {
			t.Fatalf("kept region corrupted at %d", i)
		}
	}
	// Lost tail: stale FTL data, here the buffer lagged by one sector —
	// same value in this uniform buffer, but the mutation must be recorded.
	mut, fired := inj.Fired()
	if !fired || mut.Model != ShornWrite {
		t.Fatal("shorn mutation not recorded")
	}
	if mut.Kept != 3584 || mut.Sectors != 1 {
		t.Fatalf("mutation: %+v", mut)
	}
}

func TestShornWritePreservesOldContentInLostRegion(t *testing.T) {
	base := vfs.NewMemFS()
	// Prepopulate the file so the lost tail has stale content to retain.
	old := bytes.Repeat([]byte{0x11}, 4096)
	if err := vfs.WriteFile(base, "/f", old); err != nil {
		t.Fatal(err)
	}
	inj := newWriteInjector(ShornWrite, 0, 13)
	fs := inj.Wrap(base)
	f, err := fs.Append("/f")
	if err != nil {
		t.Fatal(err)
	}
	newData := bytes.Repeat([]byte{0x22}, 4096)
	if _, err := f.WriteAt(newData, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, _ := vfs.ReadFile(base, "/f")
	for i := 0; i < 3584; i++ {
		if got[i] != 0x22 {
			t.Fatalf("kept region wrong at %d: %x", i, got[i])
		}
	}
	for i := 3584; i < 4096; i++ {
		if got[i] != 0x11 {
			t.Fatalf("lost region should retain stale 0x11 at %d, got %x", i, got[i])
		}
	}
}

func TestShornWriteThreeEighthsFeature(t *testing.T) {
	base := vfs.NewMemFS()
	sig := Config{Model: ShornWrite, Feature: Feature{ShornKeepNum: 3, ShornKeepDen: 8}}.Signature()
	inj := NewInjector(sig, 0, stats.NewRNG(17))
	fs := inj.Wrap(base)
	f, _ := fs.Create("/f")
	f.Write(bytes.Repeat([]byte{0xCD}, 4096))
	f.Close()
	mut, _ := inj.Fired()
	if mut.Kept != 1536 {
		t.Fatalf("kept = %d, want 1536 (3/8 of 4096)", mut.Kept)
	}
	if mut.Sectors != 5 {
		t.Fatalf("sectors = %d, want 5", mut.Sectors)
	}
}

func TestInjectorFiresOnlyOnce(t *testing.T) {
	base := vfs.NewMemFS()
	inj := newWriteInjector(BitFlip, 0, 19)
	fs := inj.Wrap(base)
	f, _ := fs.Create("/f")
	f.Write(bytes.Repeat([]byte{0}, 64)) // target: corrupted
	f.Write(bytes.Repeat([]byte{0}, 64)) // must pass through clean
	f.Close()
	got, _ := vfs.ReadFile(base, "/f")
	diffs := 0
	for _, b := range got[64:] {
		diffs += popcount(b)
	}
	if diffs != 0 {
		t.Fatal("second write was corrupted; injector must be single-shot")
	}
}

func TestInjectorTargetBeyondCountNeverFires(t *testing.T) {
	base := vfs.NewMemFS()
	inj := newWriteInjector(BitFlip, 1000, 23)
	fs := inj.Wrap(base)
	vfs.WriteFile(fs, "/f", []byte("clean"))
	if _, fired := inj.Fired(); fired {
		t.Fatal("injector fired past its target")
	}
	got, _ := vfs.ReadFile(base, "/f")
	if string(got) != "clean" {
		t.Fatal("data corrupted without firing")
	}
}

// TestSignatureValidationRejectsUnhostable pins that a signature the
// injector cannot run — no model, or a negative shot budget — is a
// configuration error, not a campaign. (A model's primitive is its Host,
// which Register already holds to what the injector intercepts.)
func TestSignatureValidationRejectsUnhostable(t *testing.T) {
	bad := []Config{
		{},
		{Model: BitFlip, Shots: -1},
		{Model: ReadBitFlip, Shots: -2},
	}
	for _, cfg := range bad {
		if err := cfg.Signature().Validate(); err == nil {
			t.Errorf("%s validated, want rejection", cfg.Signature())
		}
		if _, err := runCampaign(0, CampaignConfig{Fault: cfg, Runs: 1}, toyWorkload()); err == nil {
			t.Errorf("%s: a GOMAXPROCS grid accepted an unhostable signature", cfg.Signature())
		}
		grid := (&Engine{Jobs: 1}).Run([]CampaignSpec{{
			Key: "bad", Workload: toyWorkload(),
			Config: CampaignConfig{Fault: cfg, Runs: 1},
		}})
		if grid[0].Err == nil {
			t.Errorf("%s: Engine accepted an unhostable signature", cfg.Signature())
		}
	}
	for _, m := range AllModels() {
		if err := (Config{Model: m}).Signature().Validate(); err != nil {
			t.Errorf("default signature for %s rejected: %v", m, err)
		}
	}
}

// TestZeroLengthWriteDoesNotConsumeShot is the regression test for the
// empty-buffer claim bug: a 0-byte write used to burn the injector's single
// shot (recording a BitPos:-1 no-op mutation), so the run tallied as
// injected with no fault on the device.
func TestZeroLengthWriteDoesNotConsumeShot(t *testing.T) {
	base := vfs.NewMemFS()
	inj := newWriteInjector(BitFlip, 0, 47)
	fs := inj.Wrap(base)
	f, _ := fs.Create("/f")
	if _, err := f.Write(nil); err != nil { // empty: must not claim
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{}, 0); err != nil { // empty: must not claim
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x00}, 128)
	if _, err := f.Write(payload); err != nil { // first real write: target 0
		t.Fatal(err)
	}
	f.Close()
	mut, fired := inj.Fired()
	if !fired {
		t.Fatal("injector never fired: the 0-byte write consumed the shot")
	}
	if mut.Length != 128 || mut.BitPos < 0 {
		t.Fatalf("fault landed on the empty write: %+v", mut)
	}
	got, _ := vfs.ReadFile(base, "/f")
	diffs := 0
	for _, b := range got {
		diffs += popcount(b)
	}
	if diffs != 2 {
		t.Fatalf("device saw %d flipped bits, want 2", diffs)
	}
}

// TestZeroLengthWriteProfileAlignment pins the profiler/injector index
// space: with an empty write mixed into the stream, every target drawn
// from [0, profile count) must still land on a real write and fire.
func TestZeroLengthWriteProfileAlignment(t *testing.T) {
	w := Workload{
		Name:  "zero-mix",
		Setup: func(fs vfs.FS) error { return fs.MkdirAll("/out") },
		Run: func(fs vfs.FS) error {
			f, err := fs.Create("/out/d")
			if err != nil {
				return err
			}
			defer f.Close()
			for i := 0; i < 4; i++ {
				if _, err := f.Write([]byte{byte(i), byte(i)}); err != nil {
					return err
				}
				if _, err := f.Write(nil); err != nil { // empty flush
					return err
				}
			}
			return nil
		},
	}
	sig := Config{Model: BitFlip}.Signature()
	count, err := (&Engine{}).Profile(CampaignSpec{Workload: w, Config: CampaignConfig{Fault: Config{Model: BitFlip}}})
	if err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Fatalf("profiled %d writes, want 4 (empty writes must not count)", count)
	}
	for target := int64(0); target < count; target++ {
		rec, err := runOnce(w, sig, target, stats.NewRNG(61))
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Fired {
			t.Fatalf("target %d never fired: profile and claim index spaces disagree", target)
		}
		if rec.Mutation.Length != 2 {
			t.Fatalf("target %d landed on a %d-byte write", target, rec.Mutation.Length)
		}
	}
}

// seekBrokenFile wraps a File with a Seek that always fails, standing in
// for a handle whose device cannot report its position.
type seekBrokenFile struct {
	vfs.File
}

var errSeekBroken = errors.New("seek broken")

func (f seekBrokenFile) Seek(offset int64, whence int) (int64, error) {
	return 0, errSeekBroken
}

type seekBrokenFS struct {
	vfs.FS
}

func (s seekBrokenFS) Create(name string) (vfs.File, error) {
	f, err := s.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return seekBrokenFile{File: f}, nil
}

// TestArmedWriteSeekFailurePropagates is the regression test for the
// silent `off = 0` fallback: when the device offset is unknown, the armed
// write must fail instead of computing a shorn block plan against a
// fabricated offset.
func TestArmedWriteSeekFailurePropagates(t *testing.T) {
	base := seekBrokenFS{FS: vfs.NewMemFS()}
	inj := newWriteInjector(ShornWrite, 0, 53)
	fs := inj.Wrap(base)
	f, err := fs.Create("/f")
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Write(bytes.Repeat([]byte{7}, 4096))
	if !errors.Is(err, errSeekBroken) {
		t.Fatalf("armed write err = %v, want the seek error propagated", err)
	}
	// The fabricated-offset path must not have recorded a mutation.
	if mut, fired := inj.Fired(); fired {
		t.Fatalf("mutation recorded against an unknown offset: %+v", mut)
	}
	// Unarmed writes through the same stack are untouched by the seek
	// breakage (they never ask for the offset).
	f2, _ := fs.Create("/g")
	if _, err := f2.Write([]byte("ok")); err != nil {
		t.Fatalf("pass-through write failed: %v", err)
	}
}

func TestMutationString(t *testing.T) {
	for _, m := range []Mutation{
		{Model: BitFlip, Path: "/f", BitPos: 3},
		{Model: ShornWrite, Path: "/f", Kept: 10},
		{Model: DroppedWrite, Path: "/f"},
	} {
		if m.String() == "" {
			t.Errorf("empty string for %+v", m)
		}
	}
}

// Single-shot models claim their one manifestation with an atomic CAS and
// the winner then owns the RNG stream exclusively, so their draws need no
// mutex; only multi-shot plans — where several goroutines can keep drawing
// after the claim — fall back to serialized draws. The shard-level
// equivalence suites pin that the lock-free path changes no tallies.
func TestInjectorSerializesDrawsOnlyForMultiShotPlans(t *testing.T) {
	single := newWriteInjector(BitFlip, 0, 7)
	if single.serialDraws {
		t.Fatal("single-shot model should take the lock-free draw path")
	}
	multi := newWriteInjector(RepeatedMisdirection, 0, 7)
	if !multi.serialDraws {
		t.Fatal("multi-shot model must serialize RNG draws")
	}
}
