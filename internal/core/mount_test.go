package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ffis/internal/classify"
	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// tieredWorkload is a synthetic application on a three-tier world: inputs
// prepared under /input, intermediate state written to /scratch, results to
// /out. Each tier is its own backend behind a MountFS, the storage layout a
// mount-scoped campaign targets.
func tieredWorkload() Workload {
	return Workload{
		Name: "tiered-toy",
		NewFS: func() (vfs.FS, error) {
			m := vfs.NewMountFS(vfs.NewMemFS())
			for _, dir := range []string{"/input", "/scratch", "/out"} {
				if err := m.Mount(dir, vfs.NewMemFS()); err != nil {
					return nil, err
				}
			}
			return m, nil
		},
		Setup: func(fs vfs.FS) error {
			return vfs.WriteFile(fs, "/input/config.dat", bytes.Repeat([]byte{0x11}, 512))
		},
		Run: func(fs vfs.FS) error {
			in, err := vfs.ReadFile(fs, "/input/config.dat")
			if err != nil {
				return err
			}
			mid := bytes.Repeat(in[:1], 2048)
			if err := vfs.WriteFile(fs, "/scratch/mid.dat", mid); err != nil {
				return err
			}
			return vfs.WriteFile(fs, "/out/result.dat", bytes.Repeat([]byte{0x77}, 1024))
		},
	}
}

// TestArmMountsIsolation is the acceptance test for mount-scoped arming: a
// campaign armed on the scratch mount corrupts only I/O routed to that
// mount, and files on every other mount stay bit-identical to the golden
// run — in every single injection run, across every possible target.
func TestArmMountsIsolation(t *testing.T) {
	w := tieredWorkload()
	golden, err := goldenSnapshot(w, "/")
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	if len(golden) != 3 {
		t.Fatalf("golden run produced %d files; want 3 (%v)", len(golden), golden)
	}

	// Classify compares the clean tiers byte-for-byte against golden and
	// the scratch tier for evidence of the fault.
	cleanViolations := 0
	w.Classify = func(fs vfs.FS, runErr error) classify.Outcome {
		if runErr != nil {
			return classify.Crash
		}
		for _, p := range []string{"/input/config.dat", "/out/result.dat"} {
			data, err := vfs.ReadFile(fs, p)
			if err != nil || !bytes.Equal(data, golden[p]) {
				cleanViolations++
				return classify.Detected
			}
		}
		mid, err := vfs.ReadFile(fs, "/scratch/mid.dat")
		if err != nil {
			return classify.Crash
		}
		if bytes.Equal(mid, golden["/scratch/mid.dat"]) {
			return classify.Benign
		}
		return classify.SDC
	}

	sig := Config{Model: BitFlip}.Signature()
	count, err := profileArmed(w, sig, "/scratch")
	if err != nil {
		t.Fatalf("profile: %v", err)
	}
	// The run phase issues exactly one write per tier; only the scratch
	// one may be counted as an injection target.
	if count != 1 {
		t.Fatalf("armed profile counted %d writes; want 1 (scratch only)", count)
	}
	// Exhaust every reachable target rather than sampling.
	fired := 0
	for target := int64(0); target < count; target++ {
		rec, err := runOnce(w, sig, target, stats.NewRNG(7), "/scratch")
		if err != nil {
			t.Fatalf("run target %d: %v", target, err)
		}
		if !rec.Fired {
			t.Fatalf("target %d never fired", target)
		}
		fired++
		if rec.Outcome != classify.SDC {
			t.Fatalf("target %d outcome = %v; want SDC on the scratch tier", target, rec.Outcome)
		}
		if !strings.HasPrefix(rec.Mutation.Path, "/scratch/") {
			t.Fatalf("mutation landed on %q; must stay inside the armed mount", rec.Mutation.Path)
		}
	}
	if cleanViolations != 0 {
		t.Fatalf("%d runs corrupted a clean tier", cleanViolations)
	}
	if fired == 0 {
		t.Fatalf("no injection ever fired")
	}
}

// TestArmMountsCampaign runs the full campaign loop with mount-scoped
// arming and checks that a clean-tier classifier never trips.
func TestArmMountsCampaign(t *testing.T) {
	w := tieredWorkload()
	golden, err := goldenSnapshot(w, "/")
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	w.Classify = func(fs vfs.FS, runErr error) classify.Outcome {
		if runErr != nil {
			return classify.Crash
		}
		for _, p := range []string{"/input/config.dat", "/out/result.dat"} {
			if data, err := vfs.ReadFile(fs, p); err != nil || !bytes.Equal(data, golden[p]) {
				return classify.Detected // clean tier corrupted: must not happen
			}
		}
		return classify.SDC
	}
	res, err := runCampaign(0, CampaignConfig{
		Fault:     Config{Model: DroppedWrite},
		Runs:      16,
		Seed:      99,
		ArmMounts: []string{"/scratch"},
	}, w)
	if err != nil {
		t.Fatalf("campaign: %v", err)
	}
	if got := res.Tally.Count(classify.Detected); got != 0 {
		t.Fatalf("%d runs corrupted a tier outside the armed mount", got)
	}
	if got := res.Tally.Count(classify.SDC); got != 16 {
		t.Fatalf("SDC count = %d; want all 16 dropped scratch writes", got)
	}
}

// TestDisarmedInjectorOnMountR1 checks transparency (R1) through the whole
// mount stack: a Disarmed injector interposed on a mounted tier leaves the
// application's output byte-identical to the same run on a bare MemFS.
func TestDisarmedInjectorOnMountR1(t *testing.T) {
	w := tieredWorkload()

	// Reference: the same application run on a flat, bare MemFS.
	flat := vfs.NewMemFS()
	for _, dir := range []string{"/input", "/scratch", "/out"} {
		if err := flat.MkdirAll(dir); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
	}
	if err := w.Setup(flat); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if err := w.Run(flat); err != nil {
		t.Fatalf("run: %v", err)
	}
	want, err := readTree(flat, "/")
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	// Under test: mounted world with a disarmed injector on the scratch
	// tier.
	world, err := w.NewFS()
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	armed, err := world.(*vfs.MountFS).WithInterposed("/scratch",
		Disarmed(Config{Model: BitFlip}.Signature()).Wrap)
	if err != nil {
		t.Fatalf("interpose: %v", err)
	}
	if err := w.Setup(armed); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if err := w.Run(armed); err != nil {
		t.Fatalf("run: %v", err)
	}
	got, err := readTree(armed, "/")
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}

	if len(got) != len(want) {
		t.Fatalf("file sets differ: got %d files, want %d", len(got), len(want))
	}
	for p, data := range want {
		if !bytes.Equal(got[p], data) {
			t.Fatalf("R1 violated: %s differs between bare MemFS and disarmed mounted tier", p)
		}
	}
}

// TestArmMountsRequiresMountFS documents the contract error: mount-scoped
// arming on a flat world is a configuration mistake, not a silent no-op.
func TestArmMountsRequiresMountFS(t *testing.T) {
	w := toyWorkload() // default NewFS: bare MemFS
	_, err := runCampaign(0, CampaignConfig{
		Fault:     Config{Model: BitFlip},
		Runs:      1,
		ArmMounts: []string{"/scratch"},
	}, w)
	if err == nil || !strings.Contains(err.Error(), "MountFS") {
		t.Fatalf("campaign on flat world with ArmMounts = %v; want MountFS contract error", err)
	}
}

// TestProfileMountsRoutedCountOnly pins the profiling contract down with a
// workload whose per-tier write counts differ: the armed count must be the
// per-tier count, not the global one.
func TestProfileMountsRoutedCountOnly(t *testing.T) {
	w := Workload{
		Name: "skew",
		NewFS: func() (vfs.FS, error) {
			m := vfs.NewMountFS(vfs.NewMemFS())
			if err := m.Mount("/scratch", vfs.NewMemFS()); err != nil {
				return nil, err
			}
			return m, nil
		},
		Run: func(fs vfs.FS) error {
			for i := 0; i < 5; i++ {
				if err := vfs.WriteFile(fs, fmt.Sprintf("/scratch/s%d", i), []byte("x")); err != nil {
					return err
				}
			}
			for i := 0; i < 3; i++ {
				if err := vfs.WriteFile(fs, fmt.Sprintf("/r%d", i), []byte("y")); err != nil {
					return err
				}
			}
			return nil
		},
	}
	sig := Config{Model: BitFlip}.Signature()
	all, err := (&Engine{}).Profile(CampaignSpec{Workload: w, Config: CampaignConfig{Fault: Config{Model: BitFlip}}})
	if err != nil {
		t.Fatalf("profile all: %v", err)
	}
	scratchOnly, err := profileArmed(w, sig, "/scratch")
	if err != nil {
		t.Fatalf("profile scratch: %v", err)
	}
	rootOnly, err := profileArmed(w, sig, "/")
	if err != nil {
		t.Fatalf("profile root: %v", err)
	}
	if all != 8 || scratchOnly != 5 || rootOnly != 3 {
		t.Fatalf("profile counts all=%d scratch=%d root=%d; want 8/5/3", all, scratchOnly, rootOnly)
	}
}
