package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"ffis/internal/classify"
	"ffis/internal/stats"
	"ffis/internal/vfs"
)

func newReadInjector(model Model, target int64, seed uint64) *Injector {
	sig := Config{Model: model}.Signature()
	return NewInjector(sig, target, stats.NewRNG(seed))
}

// seedFile populates base with a known pattern and returns it.
func seedFile(t *testing.T, base vfs.FS, path string, pattern byte, size int) []byte {
	t.Helper()
	payload := bytes.Repeat([]byte{pattern}, size)
	if err := vfs.WriteFile(base, path, payload); err != nil {
		t.Fatal(err)
	}
	return payload
}

func TestReadModelDefaultsToReadPrimitive(t *testing.T) {
	for _, m := range ReadModels() {
		sig := Config{Model: m}.Signature()
		if m.Host() != vfs.PrimRead {
			t.Errorf("%s primitive = %s, want read", m, m.Host())
		}
		if err := sig.Validate(); err != nil {
			t.Errorf("%s default signature invalid: %v", m, err)
		}
	}
	// Write models still host write.
	if BitFlip.Host() != vfs.PrimWrite {
		t.Errorf("BitFlip primitive = %s", BitFlip.Host())
	}
}

func TestReadBitFlipIsTransient(t *testing.T) {
	base := vfs.NewMemFS()
	payload := seedFile(t, base, "/f", 0xFF, 512)
	inj := newReadInjector(ReadBitFlip, 0, 3)
	fs := inj.Wrap(base)

	f, err := fs.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	n, err := io.ReadFull(f, buf)
	if err != nil || n != 512 {
		t.Fatalf("read n=%d err=%v", n, err)
	}
	diffs := 0
	for i := range buf {
		diffs += popcount(buf[i] ^ 0xFF)
	}
	if diffs != 2 {
		t.Fatalf("flipped %d bits in the returned buffer, want 2", diffs)
	}
	mut, fired := inj.Fired()
	if !fired || mut.Model != ReadBitFlip || mut.Path != "/f" || mut.Length != 512 {
		t.Fatalf("mutation: %+v fired=%v", mut, fired)
	}
	f.Close()

	// Transience: the media is unchanged — a re-read through the armed
	// stack (injector is single-shot) and through base is byte-identical.
	for _, view := range []vfs.FS{fs, base} {
		got, err := vfs.ReadFile(view, "/f")
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("media changed by a transient read fault (err=%v)", err)
		}
	}
}

func TestReadBitFlipOnReadAt(t *testing.T) {
	base := vfs.NewMemFS()
	seedFile(t, base, "/f", 0x00, 256)
	inj := newReadInjector(ReadBitFlip, 0, 5)
	fs := inj.Wrap(base)
	f, _ := fs.Open("/f")
	buf := make([]byte, 128)
	if _, err := f.ReadAt(buf, 64); err != nil {
		t.Fatal(err)
	}
	diffs := 0
	for _, b := range buf {
		diffs += popcount(b)
	}
	if diffs != 2 {
		t.Fatalf("ReadAt flip count = %d", diffs)
	}
	mut, _ := inj.Fired()
	if mut.Offset != 64 || mut.Length != 128 {
		t.Fatalf("mutation: %+v", mut)
	}
}

func TestUnreadableSectorFailsExactlyOneRead(t *testing.T) {
	base := vfs.NewMemFS()
	// Varied content, so a silently advanced offset delivers visibly wrong
	// bytes instead of more of the same pattern.
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte(i / 256) // per-chunk value 0,1,2,3
	}
	if err := vfs.WriteFile(base, "/f", payload); err != nil {
		t.Fatal(err)
	}
	inj := newReadInjector(UnreadableSector, 1, 7) // fail the 2nd read
	fs := inj.Wrap(base)

	f, _ := fs.Open("/f")
	buf := make([]byte, 256)
	if _, err := f.Read(buf); err != nil {
		t.Fatalf("1st read must pass: %v", err)
	}
	_, err := f.Read(buf)
	if !errors.Is(err, vfs.ErrUnreadable) {
		t.Fatalf("2nd read err = %v, want vfs.ErrUnreadable", err)
	}
	// The failed read must not advance the sequential offset: the device
	// delivered nothing.
	if _, err := f.Read(buf); err != nil {
		t.Fatalf("3rd read must pass (single-shot): %v", err)
	}
	if !bytes.Equal(buf, payload[256:512]) {
		t.Fatal("failed read advanced the offset or corrupted data")
	}
	mut, fired := inj.Fired()
	if !fired || !mut.Unreadable || mut.Model != UnreadableSector {
		t.Fatalf("mutation: %+v fired=%v", mut, fired)
	}
	f.Close()
	if got, _ := vfs.ReadFile(base, "/f"); !bytes.Equal(got, payload) {
		t.Fatal("unreadable sector altered the media")
	}
}

func TestLatentCorruptionPersistsAtRest(t *testing.T) {
	base := vfs.NewMemFS()
	payload := seedFile(t, base, "/f", 0xAA, 512)
	inj := newReadInjector(LatentCorruption, 0, 11)
	fs := inj.Wrap(base)

	f, _ := fs.Open("/f")
	buf := make([]byte, 512)
	if _, err := io.ReadFull(f, buf); err != nil {
		t.Fatal(err)
	}
	f.Close()
	diffs := func(got []byte) int {
		n := 0
		for i := range got {
			n += popcount(got[i] ^ payload[i])
		}
		return n
	}
	if diffs(buf) != 2 {
		t.Fatalf("target read saw %d flipped bits, want 2", diffs(buf))
	}
	// Durability: the same corruption is visible at rest, to every later
	// reader, through the clean view.
	atRest, err := vfs.ReadFile(base, "/f")
	if err != nil {
		t.Fatal(err)
	}
	if diffs(atRest) != 2 {
		t.Fatalf("at-rest bytes have %d flipped bits, want 2", diffs(atRest))
	}
	if !bytes.Equal(atRest, buf) {
		t.Fatal("the target read and the at-rest state disagree")
	}
	mut, fired := inj.Fired()
	if !fired || !mut.Latent || mut.Model != LatentCorruption {
		t.Fatalf("mutation: %+v fired=%v", mut, fired)
	}
}

func TestLatentCorruptionThroughReadOnlyHandle(t *testing.T) {
	// The application's handle is read-only (Open); the injector must still
	// be able to mutate the at-rest bytes via its own side handle.
	base := vfs.NewMemFS()
	payload := seedFile(t, base, "/f", 0x33, 64)
	inj := newReadInjector(LatentCorruption, 0, 13)
	fs := inj.Wrap(base)
	f, err := fs.Open("/f")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if bytes.Equal(buf, payload) {
		t.Fatal("latent corruption never landed")
	}
}

func TestLatentCorruptionAtEOFBurnsShotHarmlessly(t *testing.T) {
	base := vfs.NewMemFS()
	payload := seedFile(t, base, "/f", 0x11, 32)
	inj := newReadInjector(LatentCorruption, 0, 17)
	fs := inj.Wrap(base)
	f, _ := fs.Open("/f")
	buf := make([]byte, 16)
	if _, err := f.ReadAt(buf, 1000); err != io.EOF {
		t.Fatalf("EOF read err = %v", err)
	}
	f.Close()
	mut, fired := inj.Fired()
	if !fired || mut.BitPos != -1 {
		t.Fatalf("EOF latent shot: %+v fired=%v", mut, fired)
	}
	if got, _ := vfs.ReadFile(base, "/f"); !bytes.Equal(got, payload) {
		t.Fatal("EOF latent shot altered the media")
	}
}

func TestReadFaultsUntouchedWhenTargetingWrite(t *testing.T) {
	// A write-targeted signature must leave every read alone, and vice
	// versa: a read-targeted signature must leave writes alone.
	base := vfs.NewMemFS()
	payload := seedFile(t, base, "/f", 0x42, 256)
	inj := newWriteInjector(BitFlip, 0, 19)
	fs := inj.Wrap(base)
	got, err := vfs.ReadFile(fs, "/f")
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatal("write-targeted injector corrupted a read")
	}

	inj2 := newReadInjector(ReadBitFlip, 0, 19)
	fs2 := inj2.Wrap(vfs.NewMemFS())
	if err := vfs.WriteFile(fs2, "/g", payload); err != nil {
		t.Fatal(err)
	}
	if _, fired := inj2.Fired(); fired {
		t.Fatal("read-targeted injector fired on a write")
	}
}

// TestDisarmedReadPathTransparency is the R1 check for the read path: a
// Disarmed injector must be byte-identical for Read, ReadAt, and Open on
// both a flat MemFS and a mounted MountFS world.
func TestDisarmedReadPathTransparency(t *testing.T) {
	worlds := map[string]func() vfs.FS{
		"memfs": func() vfs.FS { return vfs.NewMemFS() },
		"mountfs": func() vfs.FS {
			m := vfs.NewMountFS(vfs.NewMemFS())
			if err := m.Mount("/data", vfs.NewMemFS()); err != nil {
				t.Fatal(err)
			}
			return m
		},
	}
	for name, build := range worlds {
		for _, model := range ReadModels() {
			t.Run(name+"/"+model.Short(), func(t *testing.T) {
				base := build()
				if err := base.MkdirAll("/data"); err != nil {
					t.Fatal(err)
				}
				payload := seedFile(t, base, "/data/f", 0x99, 4096)
				fs := Disarmed(Config{Model: model}.Signature()).Wrap(base)

				// Open + sequential Read.
				f, err := fs.Open("/data/f")
				if err != nil {
					t.Fatal(err)
				}
				got := make([]byte, len(payload))
				if _, err := io.ReadFull(f, got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, payload) {
					t.Fatal("disarmed Read differs from the media")
				}
				// Positional ReadAt with an odd range.
				part := make([]byte, 777)
				if _, err := f.ReadAt(part, 1234); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(part, payload[1234:1234+777]) {
					t.Fatal("disarmed ReadAt differs from the media")
				}
				f.Close()
				// The media itself is untouched.
				if atRest, _ := vfs.ReadFile(base, "/data/f"); !bytes.Equal(atRest, payload) {
					t.Fatal("disarmed wrap altered the media")
				}
			})
		}
	}
}

// readWorkload is a producer→consumer toy: Run writes a record file and
// then reads it back, persisting a checksum — so read-targeted campaigns
// have instances to land on and a consumer artifact to classify.
func readWorkload() Workload {
	golden := bytes.Repeat([]byte{0xC3}, 2048)
	return Workload{
		Name:  "read-toy",
		Setup: func(fs vfs.FS) error { return fs.MkdirAll("/out") },
		Run: func(fs vfs.FS) error {
			if err := vfs.WriteFile(fs, "/out/data.bin", golden); err != nil {
				return err
			}
			f, err := fs.Open("/out/data.bin")
			if err != nil {
				return err
			}
			defer f.Close()
			sum := 0
			buf := make([]byte, 256)
			for {
				n, err := f.Read(buf)
				for _, b := range buf[:n] {
					sum += int(b)
				}
				if err == io.EOF {
					break
				}
				if err != nil {
					return err
				}
			}
			return vfs.WriteFile(fs, "/out/sum.txt", []byte(fmt.Sprintf("%d", sum)))
		},
		Classify: func(fs vfs.FS, runErr error) classify.Outcome {
			if runErr != nil {
				return classify.Crash
			}
			sum, err := vfs.ReadFile(fs, "/out/sum.txt")
			if err != nil {
				return classify.Crash
			}
			if string(sum) == fmt.Sprintf("%d", 2048*0xC3) {
				return classify.Benign
			}
			return classify.SDC
		},
	}
}

// TestReadModelCampaignDeterminism is the read-path determinism check: for
// every read model, workers 1 and 8 and the reference loop, which rebuilds
// the world for every run (referenceRecords), must produce identical
// tallies and per-run mutation records.
func TestReadModelCampaignDeterminism(t *testing.T) {
	for _, model := range ReadModels() {
		model := model
		t.Run(model.Short(), func(t *testing.T) {
			cfg := CampaignConfig{Fault: Config{Model: model}, Runs: 24, Seed: 777}
			run := func(workers int) CampaignResult {
				res, err := runCampaign(workers, cfg, readWorkload())
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			serial := run(1)
			requireSameResult(t, "workers 1 vs 8", serial, run(8))
			ref, err := referenceRecords(CampaignSpec{Workload: readWorkload(), Config: cfg})
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "engine vs reference", serial, ref)
			// A read campaign must actually reach the read path.
			firedOnRead := 0
			for _, rec := range serial.Records {
				if rec.Fired && rec.Mutation.Model == model {
					firedOnRead++
				}
			}
			if firedOnRead == 0 {
				t.Fatal("no run ever fired a read fault")
			}
		})
	}
}

// TestReadModelCampaignOutcomes sanity-checks the taxonomy end to end: an
// unreadable-sector campaign on the read toy must produce crashes (the
// consumer dies on EIO), and a latent campaign must produce SDC or benign
// (sum unchanged if the flips cancel — impossible here, so SDC).
func TestReadModelCampaignOutcomes(t *testing.T) {
	res, err := runCampaign(0, CampaignConfig{
		Fault: Config{Model: UnreadableSector},
		Runs:  8,
		Seed:  5,
	}, readWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Tally.Count(classify.Crash); got != 8 {
		t.Fatalf("unreadable campaign crashes = %d/8\n%+v", got, res.Tally)
	}
	res, err = runCampaign(0, CampaignConfig{
		Fault: Config{Model: LatentCorruption},
		Runs:  8,
		Seed:  5,
	}, readWorkload())
	if err != nil {
		t.Fatal(err)
	}
	// A shot can land on the consumer's EOF-probe read (no at-rest bytes
	// under it) and stay benign; every shot that lands on data must be SDC.
	sdc, benign := res.Tally.Count(classify.SDC), res.Tally.Count(classify.Benign)
	if sdc+benign != 8 || sdc < 6 {
		t.Fatalf("latent campaign tally: %+v (want only SDC/benign, SDC majority)", res.Tally)
	}
}

// TestArmMountsReadIsolation mirrors TestArmMountsIsolation for the read
// path: a latent-corruption campaign armed on one mount must mutate at-rest
// state only inside that mount.
func TestArmMountsReadIsolation(t *testing.T) {
	w := Workload{
		Name: "tiered-read-toy",
		NewFS: func() (vfs.FS, error) {
			m := vfs.NewMountFS(vfs.NewMemFS())
			for _, dir := range []string{"/input", "/scratch"} {
				if err := m.Mount(dir, vfs.NewMemFS()); err != nil {
					return nil, err
				}
			}
			return m, nil
		},
		Setup: func(fs vfs.FS) error {
			if err := vfs.WriteFile(fs, "/input/a.dat", bytes.Repeat([]byte{1}, 128)); err != nil {
				return err
			}
			return vfs.WriteFile(fs, "/scratch/b.dat", bytes.Repeat([]byte{2}, 128))
		},
		Run: func(fs vfs.FS) error {
			if _, err := vfs.ReadFile(fs, "/input/a.dat"); err != nil {
				return err
			}
			_, err := vfs.ReadFile(fs, "/scratch/b.dat")
			return err
		},
	}
	sig := Config{Model: LatentCorruption}.Signature()
	count, err := profileArmed(w, sig, "/scratch")
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("no reads routed to the armed mount")
	}
	for target := int64(0); target < count; target++ {
		rec, err := runOnce(w, sig, target, stats.NewRNG(23), "/scratch")
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Fired {
			t.Fatalf("target %d never fired", target)
		}
		if !strings.HasPrefix(rec.Mutation.Path, "/scratch/") {
			t.Fatalf("latent corruption landed on %q, outside the armed mount", rec.Mutation.Path)
		}
	}
}
