package montage

import (
	"bytes"
	"fmt"
	"maps"
	"strings"
	"testing"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/fits"
	"ffis/internal/stats"
	"ffis/internal/trace"
	"ffis/internal/vfs"
)

// faultyOpen serves path to Run with one byte flipped, as a read fault
// would, or panics opening it when panics is set.
type faultyOpen struct {
	vfs.FS
	path   string
	panics bool
}

func (f faultyOpen) Open(name string) (vfs.File, error) {
	if name != f.path {
		return f.FS.Open(name)
	}
	if f.panics {
		panic("open " + name)
	}
	raw, err := vfs.ReadFile(f.FS, name)
	if err != nil {
		return nil, err
	}
	side := vfs.NewMemFS()
	if err := vfs.WriteFile(side, "/read", flipped(raw)); err != nil {
		return nil, err
	}
	return side.Open("/read")
}

// flipped returns raw with one bit flipped: in a FITS file, the lowest
// exponent bit of pixel 130, which doubles or halves it (in the third row
// of a tile, where tiles overlap); in any other file, a bit of its middle
// byte.
func flipped(raw []byte) []byte {
	out := bytes.Clone(raw)
	if len(out) > fits.BlockSize+131*8 {
		out[fits.BlockSize+130*8+1] ^= 0x10
	} else {
		out[len(out)/2] ^= 0x40
	}
	return out
}

// rewrite returns a world edit that replaces the file at path with
// edit(its bytes).
func rewrite(t *testing.T, path string, edit func([]byte) []byte) func(vfs.FS) {
	return func(fs vfs.FS) {
		raw, err := vfs.ReadFile(fs, path)
		if err != nil {
			t.Fatal(err)
		}
		if err := vfs.WriteFile(fs, path, edit(raw)); err != nil {
			t.Fatal(err)
		}
	}
}

// panicCreate panics creating the file at path.
type panicCreate struct {
	vfs.FS
	path string
}

func (f panicCreate) Create(name string) (vfs.File, error) {
	if name == f.path {
		panic("create " + name)
	}
	return f.FS.Create(name)
}

// keptOutput returns the output image sc keeps for the file at path, which
// stage's Run writes from a kept encoding, with the output's memo and
// encoding.
func keptOutput(sc *scratch, cfg Config, stage Stage, path string) (*fits.Image, *memo, *encoding) {
	switch stage {
	case StageProject:
		return &sc.projected[3].im, &sc.projected[3].memo, &sc.projected[3].enc
	case StageBg:
		return &sc.corrected[3].im, &sc.corrected[3].memo, &sc.corrected[3].enc
	case StageAdd:
		return &sc.mosaic.im, &sc.mosaic.memo, &sc.mosaic.enc
	}
	for k := range sc.pairs {
		if diffPath(k/cfg.Tiles, k%cfg.Tiles) == path {
			return &sc.pairs[k].diff, &sc.pairs[k].memo, &sc.pairs[k].enc
		}
	}
	panic("no kept output for " + path)
}

// encodedTarget returns the path of an output stage's Run writes from a
// kept encoding, one that tile 3 reaches, and the write instance of its
// first pixel block in a fault-free Run on world.
func encodedTarget(t *testing.T, app *App, world *vfs.MemFS) (string, int64) {
	t.Helper()
	path := map[Stage]string{StageProject: projPath(3), StageBg: corrPath(3), StageAdd: MosaicPath}[app.Stage]
	rec := trace.NewRecorder(world.Clone())
	if err := app.Run(rec); err != nil {
		t.Fatal(err)
	}
	writes, blocks := int64(0), 0
	for _, op := range rec.Log() {
		if op.Primitive != vfs.PrimWrite || op.Size == 0 {
			continue
		}
		if path == "" && strings.HasPrefix(op.Path, DiffDir+"/d") && strings.Contains(op.Path, "03") {
			path = op.Path // MT2: the first difference image of tile 3
		}
		if op.Path == path {
			if blocks++; blocks == 2 {
				return path, writes
			}
		}
		writes++
	}
	t.Fatalf("MT%d: no pixel block written to %q", int(app.Stage), path)
	return "", 0
}

// readTarget returns the read instance with which a fault-free Run on
// world first reads path.
func readTarget(t *testing.T, app *App, world *vfs.MemFS, path string) int64 {
	t.Helper()
	rec := trace.NewRecorder(world.Clone())
	if err := app.Run(rec); err != nil {
		t.Fatal(err)
	}
	reads := int64(0)
	for _, op := range rec.Log() {
		if op.Primitive != vfs.PrimRead || op.Size == 0 {
			continue
		}
		if op.Path == path {
			return reads
		}
		reads++
	}
	t.Fatalf("MT%d: Run reads no %q", int(app.Stage), path)
	return 0
}

// TestWorkerReuseMatchesFreshScratch drives, for each stage, one Worker
// pair and fresh scratches (App.Run, App.Classify) through the same
// script of worlds: a file the stage's Run reads (its input) or writes
// and Classify reads (its output) flipped on disk or cut short so that its
// decode fails, a read fault that only Run sees (Classify then reads the
// clean bytes of the file Run decoded corrupted), a Run that panics, and
// repeats of earlier corrupted inputs between golden worlds. Further steps
// aim at the outputs Run writes from kept encodings: a bit flip, a shorn
// and a misdirected write on one, each followed by a golden world that
// writes the kept encoding again; an input rewritten with bytes that decode
// to the same pixels, whose outputs take a new generation and are encoded
// again; and a Run that panics creating one. Last come the worlds where a
// skip by vfs.Origin token would be wrong: an input rewritten with equal
// bytes, an input deleted and re-created, a clone of another world that
// Setup built with equal bytes, and a run under a read-hosting model
// between two write-model runs. The pair keeps what it
// decoded, computed and encoded from step to step; at every step its run
// error, outcome and every file must equal those of fresh scratches, and
// after a Run that no write fault hit, the encoded output must equal a
// fresh fits.Write of the image the pair keeps for it. A last case panics
// an encode midway and then encodes a new image under its generation.
func TestWorkerReuseMatchesFreshScratch(t *testing.T) {
	cfg := DefaultConfig()
	input := map[Stage]string{StageProject: rawPath(3), StageDiff: projPath(3), StageBg: projPath(3), StageAdd: corrPath(3)}
	output := map[Stage]string{StageProject: projPath(3), StageDiff: FitsTablePath, StageBg: corrPath(3), StageAdd: ImagePath}
	half := func(raw []byte) []byte { return raw[:len(raw)/2] }
	// A byte of the header block after its END card: parseHeader reads no
	// further, so the pixels decode unchanged.
	pastEnd := func(raw []byte) []byte {
		out := bytes.Clone(raw)
		out[fits.BlockSize-1] = 'X'
		return out
	}
	for _, stage := range Stages() {
		app, err := NewApp(cfg, stage)
		if err != nil {
			t.Fatal(err)
		}
		world, other := vfs.NewMemFS(), vfs.NewMemFS()
		for _, w := range []*vfs.MemFS{world, other} {
			if err := app.Setup(w); err != nil {
				t.Fatal(err)
			}
		}
		in, out := input[stage], output[stage]
		recreate := func(fs vfs.FS) {
			raw, err := vfs.ReadFile(fs, in)
			if err == nil {
				err = fs.Remove(in)
			}
			if err == nil {
				err = vfs.WriteFile(fs, in, raw)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		enc, target := encodedTarget(t, app, world)
		inRead := readTarget(t, app, world, in)
		steps := []struct {
			name          string
			before, after func(vfs.FS)
			open          *faultyOpen
			fault         core.Model // on the first pixel block of enc, or on the read of in
			panics        bool       // creating enc
			reencode      bool
			other         bool // a clone of another world Setup built with equal bytes
		}{
			{name: "golden"},
			{name: "input flipped", before: rewrite(t, in, flipped)},
			{name: "read fault in Run", open: &faultyOpen{path: in}},
			{name: "golden again"},
			{name: "output flipped", after: rewrite(t, out, flipped)},
			{name: "input cut short", before: rewrite(t, in, half)},
			{name: "input cut short again", before: rewrite(t, in, half)},
			{name: "output cut short", after: rewrite(t, out, half)},
			{name: "Run panics", open: &faultyOpen{path: in, panics: true}},
			{name: "input flipped again", before: rewrite(t, in, flipped)},
			{name: "read fault in Run again", open: &faultyOpen{path: in}},
			{name: "output flipped again", after: rewrite(t, out, flipped)},
			{name: "golden at last"},
			{name: "bit flip on an encoded output", fault: core.BitFlip},
			{name: "golden after a bit flip"},
			{name: "shorn write on an encoded output", fault: core.ShornWrite},
			{name: "golden after a shorn write"},
			{name: "misdirected write on an encoded output", fault: core.MisdirectedWrite},
			{name: "golden after a misdirected write"},
			{name: "input rewritten with equal pixels", before: rewrite(t, in, pastEnd), reencode: true},
			{name: "Run panics creating an encoded output", panics: true},
			{name: "golden after a panic"},
			{name: "input rewritten with equal bytes", before: rewrite(t, in, bytes.Clone)},
			{name: "input deleted and re-created", before: recreate},
			{name: "another world with equal bytes", other: true},
			{name: "golden after another world"},
			{name: "write model before a read model", fault: core.BitFlip},
			{name: "read model between write models", fault: core.ReadBitFlip},
			{name: "write model after a read model", fault: core.ShornWrite},
			{name: "golden after a read model"},
		}
		sc := cfg.newScratch()
		run, cls := app.worker(sc) // as App.Worker binds its own scratch
		for _, st := range steps {
			name := fmt.Sprintf("MT%d %s", int(stage), st.name)
			_, m, e := keptOutput(sc, cfg, stage, enc)
			encGen := e.gen
			var got [2]string
			var files [2]map[string]string
			for side, pair := range [2]struct {
				run      func(vfs.FS) error
				classify func(vfs.FS, error) classify.Outcome
			}{{run, cls}, {app.Run, app.Classify}} {
				fs := world.Clone()
				if st.other {
					fs = other.Clone()
				}
				if st.before != nil {
					st.before(fs)
				}
				var view vfs.FS = fs
				switch {
				case st.open != nil:
					o := *st.open
					o.FS = fs
					view = o
				case st.fault != nil:
					at, seed := target, uint64(2021)
					if st.fault.Host() == vfs.PrimRead {
						at, seed = inRead, 2 // seed 2 flips a pixel bit of in: SDC in every stage
					}
					view = core.NewInjector(core.Config{Model: st.fault}.Signature(), at, stats.NewRNG(seed)).Wrap(fs)
				case st.panics:
					view = panicCreate{fs, enc}
				}
				runErr := runRecovering(pair.run, view)
				if side == 0 && runErr == nil && st.fault == nil {
					im, _, _ := keptOutput(sc, cfg, stage, enc)
					want := vfs.NewMemFS()
					if err := fits.Write(want, "/want", im); err != nil {
						t.Fatal(err)
					}
					wantRaw, _ := vfs.ReadFile(want, "/want")
					if raw, err := vfs.ReadFile(fs, enc); err != nil || !bytes.Equal(raw, wantRaw) {
						t.Errorf("%s: %s differs from a fresh fits.Write of the kept image (%v)", name, enc, err)
					}
				}
				if side == 0 && st.reencode && (e.gen == encGen || e.gen != m.gen) {
					t.Errorf("%s: encoding of generation %d before, %d after, output at %d", name, encGen, e.gen, m.gen)
				}
				if st.after != nil {
					st.after(fs)
				}
				got[side] = fmt.Sprintf("run error %v, outcome %s", runErr, pair.classify(fs, runErr))
				files[side] = map[string]string{}
				if err := vfs.Walk(fs, "/", func(p string, _ vfs.FileInfo) error {
					raw, err := vfs.ReadFile(fs, p)
					files[side][p] = string(raw)
					return err
				}); err != nil {
					t.Fatal(err)
				}
			}
			if got[0] != got[1] {
				t.Errorf("%s: Worker pair: %s; fresh scratch: %s", name, got[0], got[1])
			}
			if !maps.Equal(files[0], files[1]) {
				t.Errorf("%s: the Worker pair's world differs from the fresh scratch's", name)
			}
			t.Logf("%s: %s", name, got[1])
		}
	}
	t.Run("encode panics", func(t *testing.T) {
		// Encode panics on a nil image before it writes a byte: an encoding
		// that took its new generation first would still hold the last
		// image's bytes under it.
		cfg := DefaultConfig()
		a, b := cfg.Observe(cfg.TileSpecs()[0], 0), cfg.Observe(cfg.TileSpecs()[1], 1)
		fs := vfs.NewMemFS()
		var e encoding
		if err := e.write(fs, "/f", a, 1); err != nil {
			t.Fatal(err)
		}
		if err := runRecovering(func(fs vfs.FS) error { return e.write(fs, "/f", nil, 2) }, fs); err == nil {
			t.Fatal("encoding a nil image did not panic")
		}
		if err := e.write(fs, "/f", b, 2); err != nil {
			t.Fatal(err)
		}
		if err := fits.Write(fs, "/want", b); err != nil {
			t.Fatal(err)
		}
		got, _ := vfs.ReadFile(fs, "/f")
		want, _ := vfs.ReadFile(fs, "/want")
		if !bytes.Equal(got, want) {
			t.Fatal("after a panicking encode, the next image of its generation was not encoded")
		}
	})
}

// runRecovering calls run on fs and returns a panic as an error, as the
// campaign loop does.
func runRecovering(run func(vfs.FS) error, fs vfs.FS) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return run(fs)
}
