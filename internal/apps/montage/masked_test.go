package montage

import (
	"sort"
	"strings"
	"testing"

	"ffis/internal/trace"
	"ffis/internal/vfs"
)

// TestMT2DownstreamReadSet pins the read set the MT2 shortcut (App.masked)
// relies on. On the world a fault-free MT2 run leaves, traced through a
// trace.Recorder, mBgExec and mAdd open for reading only the plane-fit
// table and the projection and area files (apart from files they create
// themselves), and create, write and make directories only under /corr
// and /mosaic; finish, which classification runs in their place, reads
// the same files and writes nothing. A stage that starts reading another
// file, or touching storage any other way, fails here instead of letting
// the shortcut return Benign for a run whose downstream stages would read
// other bytes.
func TestMT2DownstreamReadSet(t *testing.T) {
	cfg := DefaultConfig()
	app, err := NewApp(cfg, StageDiff)
	if err != nil {
		t.Fatal(err)
	}
	world := vfs.NewMemFS()
	if err := app.Setup(world); err != nil {
		t.Fatal(err)
	}
	if err := app.Run(world); err != nil {
		t.Fatal(err)
	}
	want := []string{FitsTablePath}
	for i := 0; i < cfg.Tiles; i++ {
		want = append(want, projPath(i), areaPath(i))
	}
	sort.Strings(want)
	downstream := map[string]func(vfs.FS) error{
		"mBgExec and mAdd": func(fs vfs.FS) error { return cfg.RunPipeline(fs, StageBg, StageAdd) },
		"finish": func(fs vfs.FS) error {
			_, _, err := cfg.finish(fs, StageBg, cfg.newScratch())
			return err
		},
	}
	for name, run := range downstream {
		rec := trace.NewRecorder(world.Clone())
		if err := run(rec); err != nil {
			t.Fatal(err)
		}
		created := map[string]bool{}
		read := map[string]bool{}
		for _, op := range rec.Log() {
			switch op.Primitive {
			case vfs.PrimCreate, vfs.PrimMkdir, vfs.PrimWrite:
				if name == "finish" {
					t.Errorf("%s: %s", name, op)
				} else if !strings.HasPrefix(op.Path+"/", CorrDir+"/") && !strings.HasPrefix(op.Path+"/", MosaicDir+"/") {
					t.Errorf("%s: %s outside %s and %s", name, op, CorrDir, MosaicDir)
				}
				created[op.Path] = true
			case vfs.PrimOpen, vfs.PrimRead:
				if !created[op.Path] {
					read[op.Path] = true
				}
			default:
				t.Errorf("%s: unexpected operation %s", name, op)
			}
		}
		var got []string
		for p := range read {
			got = append(got, p)
		}
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("%s read\n  %v\nwant\n  %v", name, got, want)
		}
	}
}

// TestMaskedNeedsCloneAndGoldenTable: the shortcut fires on a clone of
// the post-Setup world after a fault-free MT2 run, and not when the world
// is no clone, a projection was rewritten (even with its own bytes), the
// table differs, or a downstream directory exists; no other stage has it.
func TestMaskedNeedsCloneAndGoldenTable(t *testing.T) {
	cfg := DefaultConfig()
	app, err := NewApp(cfg, StageDiff)
	if err != nil {
		t.Fatal(err)
	}
	pristine := vfs.NewMemFS()
	if err := app.Setup(pristine); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		world func() vfs.FS
		after func(fs vfs.FS) error
		want  bool
	}{
		{"clone", func() vfs.FS { return pristine.Clone() }, nil, true},
		{"not a clone", func() vfs.FS {
			fs := vfs.NewMemFS()
			if err := app.Setup(fs); err != nil {
				t.Fatal(err)
			}
			return fs
		}, nil, false},
		{"projection rewritten", func() vfs.FS { return pristine.Clone() }, func(fs vfs.FS) error {
			raw, err := vfs.ReadFile(fs, projPath(3))
			if err != nil {
				return err
			}
			return vfs.WriteFile(fs, projPath(3), raw)
		}, false},
		{"table changed", func() vfs.FS { return pristine.Clone() }, func(fs vfs.FS) error {
			f, err := fs.Append(FitsTablePath)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = f.Write([]byte("\n"))
			return err
		}, false},
		{"mosaic dir exists", func() vfs.FS { return pristine.Clone() }, func(fs vfs.FS) error {
			return fs.MkdirAll(MosaicDir)
		}, false},
	}
	sc := cfg.newScratch()
	for _, tc := range cases {
		fs := tc.world()
		if err := app.Run(fs); err != nil {
			t.Fatal(err)
		}
		if tc.after != nil {
			if err := tc.after(fs); err != nil {
				t.Fatal(err)
			}
		}
		if got := app.masked(fs, sc); got != tc.want {
			t.Errorf("%s: masked = %v, want %v", tc.name, got, tc.want)
		}
	}
	for _, stage := range []Stage{StageProject, StageBg, StageAdd} {
		other, err := NewApp(cfg, stage)
		if err != nil {
			t.Fatal(err)
		}
		if other.masked(pristine.Clone(), sc) {
			t.Errorf("MT%d took the MT2 shortcut", int(stage))
		}
	}
}
