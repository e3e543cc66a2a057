package montage

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"ffis/internal/classify"
	"ffis/internal/fits"
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

// TestWorkerReuseMatchesFreshScratch drives, for each stage, one Worker
// pair and fresh scratches (App.Run, App.Classify) through the same
// script of worlds: a file the stage's Run reads (its input) or writes
// and Classify reads (its output) flipped on disk or cut short so that its
// decode fails, a read fault that only Run sees (Classify then reads the
// clean bytes of the file Run decoded corrupted), a Run that panics, and
// repeats of earlier corrupted inputs between golden worlds. The pair keeps
// what it decoded and computed from step to step; at every step its run
// error, outcome and every file must equal those of fresh scratches.
func TestWorkerReuseMatchesFreshScratch(t *testing.T) {
	cfg := DefaultConfig()
	input := map[Stage]string{StageProject: rawPath(3), StageDiff: projPath(3), StageBg: projPath(3), StageAdd: corrPath(3)}
	output := map[Stage]string{StageProject: projPath(3), StageDiff: FitsTablePath, StageBg: corrPath(3), StageAdd: ImagePath}
	half := func(raw []byte) []byte { return raw[:len(raw)/2] }
	for _, stage := range Stages() {
		app, err := NewApp(cfg, stage)
		if err != nil {
			t.Fatal(err)
		}
		world := vfs.NewMemFS()
		if err := app.Setup(world); err != nil {
			t.Fatal(err)
		}
		in, out := input[stage], output[stage]
		steps := []struct {
			name          string
			before, after func(vfs.FS)
			open          *faultyOpen
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
		}
		run, cls := app.Worker()
		for _, st := range steps {
			var got [2]string
			var files [2]map[string]string
			for side, pair := range [2]struct {
				run      func(vfs.FS) error
				classify func(vfs.FS, error) classify.Outcome
			}{{run, cls}, {app.Run, app.Classify}} {
				fs := world.Clone()
				if st.before != nil {
					st.before(fs)
				}
				var view vfs.FS = fs
				if st.open != nil {
					o := *st.open
					o.FS = fs
					view = o
				}
				runErr := runRecovering(pair.run, view)
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
			name := fmt.Sprintf("MT%d %s", int(stage), st.name)
			if got[0] != got[1] {
				t.Errorf("%s: Worker pair: %s; fresh scratch: %s", name, got[0], got[1])
			}
			if !maps.Equal(files[0], files[1]) {
				t.Errorf("%s: the Worker pair's world differs from the fresh scratch's", name)
			}
			t.Logf("%s: %s", name, got[1])
		}
	}
}

// runRecovering calls run on fs and returns a panic as an error, as the
// campaign Runner does.
func runRecovering(run func(vfs.FS) error, fs vfs.FS) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return run(fs)
}
