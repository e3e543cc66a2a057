package experiments

import (
	"bytes"
	"testing"

	"ffis/internal/core"
	"ffis/internal/vfs"
)

// cowCells covers all three applications: Nyx, QMCPACK, and Montage (MT2,
// a stage with a real multi-stage Setup preamble).
var cowCells = []string{"nyx", "qmcpack", "MT2"}

// freshWorld builds a workload's world the pre-snapshot way: NewFS (or a
// bare MemFS) plus a Setup execution.
func freshWorld(t *testing.T, w core.Workload) vfs.FS {
	t.Helper()
	fs := vfs.FS(vfs.NewMemFS())
	if w.NewFS != nil {
		var err error
		fs, err = w.NewFS()
		if err != nil {
			t.Fatal(err)
		}
	}
	if w.Setup != nil {
		if err := w.Setup(fs); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// readTree reads every file under root into a path→content map.
func readTree(fs vfs.FS, root string) (map[string][]byte, error) {
	out := map[string][]byte{}
	err := vfs.Walk(fs, root, func(p string, info vfs.FileInfo) error {
		data, err := vfs.ReadFile(fs, p)
		if err != nil {
			return err
		}
		out[p] = data
		return nil
	})
	return out, err
}

func diffSnapshots(t *testing.T, label string, want, got map[string][]byte) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d files vs %d files", label, len(want), len(got))
	}
	for p, data := range want {
		other, ok := got[p]
		if !ok {
			t.Fatalf("%s: missing %s", label, p)
		}
		if !bytes.Equal(data, other) {
			t.Fatalf("%s: %s differs (%d vs %d bytes)", label, p, len(data), len(other))
		}
	}
}

// TestClonedWorldsBitIdenticalToFresh is the COW equivalence guarantee the
// campaign engine rests on: for every application, a clone of the
// post-Setup snapshot is bit-identical (full snapshot diff over "/") to a
// world built from scratch — both before and after executing the
// application on it.
func TestClonedWorldsBitIdenticalToFresh(t *testing.T) {
	o := smallOpts()
	for _, cell := range cowCells {
		cell := cell
		t.Run(cell, func(t *testing.T) {
			w, err := NewWorkload(cell, o)
			if err != nil {
				t.Fatal(err)
			}
			snap, err := core.NewWorldSnapshot(w)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Pristine() == nil {
				t.Fatalf("%s world should support COW cloning", cell)
			}
			fresh, err := readTree(freshWorld(t, w), "/")
			if err != nil {
				t.Fatal(err)
			}
			clone, err := snap.World()
			if err != nil {
				t.Fatal(err)
			}
			cloneSnap, err := readTree(clone, "/")
			if err != nil {
				t.Fatal(err)
			}
			diffSnapshots(t, "post-setup clone vs fresh", fresh, cloneSnap)

			// Run the application on both and compare the final state too.
			freshRun := freshWorld(t, w)
			if err := w.Run(freshRun); err != nil {
				t.Fatal(err)
			}
			if err := w.Run(clone); err != nil {
				t.Fatal(err)
			}
			wantRun, err := readTree(freshRun, "/")
			if err != nil {
				t.Fatal(err)
			}
			gotRun, err := readTree(clone, "/")
			if err != nil {
				t.Fatal(err)
			}
			diffSnapshots(t, "post-run clone vs fresh", wantRun, gotRun)
		})
	}
}

// TestCloneMutationsNeverLeak runs the application inside one clone and
// asserts neither a sibling clone nor the pristine snapshot observes a
// single byte of it — for all three applications, including the tiered
// mount layouts.
func TestCloneMutationsNeverLeak(t *testing.T) {
	o := smallOpts()
	for _, cell := range cowCells {
		for _, tiered := range []bool{false, true} {
			cell, tiered := cell, tiered
			name := cell
			if tiered {
				name += "@tiered"
			}
			t.Run(name, func(t *testing.T) {
				w, err := NewWorkload(cell, o)
				if err != nil {
					t.Fatal(err)
				}
				if tiered {
					layout, err := TierLayout(cell)
					if err != nil {
						t.Fatal(err)
					}
					w.NewFS = layout.FSFactory("mem")
				}
				snap, err := core.NewWorldSnapshot(w)
				if err != nil {
					t.Fatal(err)
				}
				pristineBefore, err := readTree(snap.Pristine(), "/")
				if err != nil {
					t.Fatal(err)
				}
				victim, err := snap.World()
				if err != nil {
					t.Fatal(err)
				}
				sibling, err := snap.World()
				if err != nil {
					t.Fatal(err)
				}
				if err := w.Run(victim); err != nil {
					t.Fatal(err)
				}
				// Scribble over everything the run produced for good measure.
				if err := vfs.Walk(victim, "/", func(p string, info vfs.FileInfo) error {
					return vfs.WriteFile(victim, p, []byte("CLOBBERED"))
				}); err != nil {
					t.Fatal(err)
				}
				siblingSnap, err := readTree(sibling, "/")
				if err != nil {
					t.Fatal(err)
				}
				diffSnapshots(t, "sibling clone", pristineBefore, siblingSnap)
				pristineAfter, err := readTree(snap.Pristine(), "/")
				if err != nil {
					t.Fatal(err)
				}
				diffSnapshots(t, "pristine snapshot", pristineBefore, pristineAfter)
			})
		}
	}
}

// plainFS hides a world's Cloner implementation, so the engine rebuilds it
// (NewFS + Setup) for every run — the paper's remount-per-run procedure.
type plainFS struct{ vfs.FS }

// TestFig7EngineMatchesSequential is the acceptance gate for the COW
// engine: Fig7 must reproduce, cell for cell under the same seed, the
// tallies of the same specs run one at a time (Jobs 1) on worlds that
// cannot be cloned and are rebuilt for every run.
func TestFig7EngineMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig7 grid comparison")
	}
	o := smallOpts()
	_, engCells, err := Fig7(o)
	if err != nil {
		t.Fatal(err)
	}
	var specs []core.CampaignSpec
	for _, cell := range Fig7Cells {
		var w core.Workload
		for _, model := range Fig7Models() {
			ws := WireSpec{Cell: cell, Model: model.Name(), Runs: o.Runs, Seed: o.Seed, NyxN: o.NyxN}
			if w.Run == nil {
				if w, err = ws.Workload(); err != nil {
					t.Fatal(err)
				}
				w.NewFS = func() (vfs.FS, error) { return plainFS{vfs.NewMemFS()}, nil }
			}
			specs = append(specs, ws.CampaignSpecOn(w))
		}
	}
	grid := (&core.Engine{Jobs: 1}).Run(specs)
	if len(grid) != len(engCells) {
		t.Fatalf("%d vs %d cells", len(grid), len(engCells))
	}
	for i, r := range grid {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Spec.Key, r.Err)
		}
		seq := r.Result.Cell()
		if seq != engCells[i] {
			t.Fatalf("cell %d: sequential rebuilt %s %s vs engine %s %s",
				i, seq.Label, seq.Tally.String(), engCells[i].Label, engCells[i].Tally.String())
		}
	}
}
