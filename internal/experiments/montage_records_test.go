package experiments

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"ffis/internal/apps/montage"
	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/vfs"
)

// montageGolden holds the digest of the fault-free pipeline's files and,
// per Montage campaign, the SHA-256 of its store lines and its tally. Regenerate only after an intentional record change:
//
//	UPDATE_GOLDEN=1 go test -run TestMontageRecordsPinned ./internal/experiments/
const montageGolden = "testdata/montage_records.golden"

// montageSpecs are the pinned campaigns: every Montage cell under every
// registered model, at two seeds.
func montageSpecs() []WireSpec {
	const runs = 40
	var specs []WireSpec
	for _, cell := range []string{"MT1", "MT2", "MT3", "MT4"} {
		for _, m := range core.AllModels() {
			for _, seed := range []uint64{2021, 7} {
				specs = append(specs, WireSpec{
					Key: fmt.Sprintf("%s/%s@%d", cell, m.Name(), seed), Cell: cell, Model: m.Name(), Runs: runs, Seed: seed,
				})
			}
		}
	}
	return specs
}

// montageWorldDigest returns a line with the SHA-256 of every file the
// fault-free Montage pipeline leaves, path and bytes in path order: the
// output of every stage kernel, bit for bit. Records alone would miss a
// kernel that computes differently but consistently, since the golden
// image a run is compared with comes from the same kernels.
func montageWorldDigest(t *testing.T) string {
	t.Helper()
	cfg, fs := montage.DefaultConfig(), vfs.NewMemFS()
	if err := cfg.WriteRawTiles(fs); err != nil {
		t.Fatal(err)
	}
	if err := cfg.RunPipeline(fs, montage.StageProject, montage.StageAdd); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := vfs.Walk(fs, "/", func(p string, info vfs.FileInfo) error {
		raw, err := vfs.ReadFile(fs, p)
		fmt.Fprintf(h, "%s %d\n", p, len(raw))
		h.Write(raw)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("fault-free world sha256=%x", h.Sum(nil))
}

// montageDigests runs specs on an engine of the given width and returns one
// line per spec: its key, the SHA-256 of its record lines (each ending in
// a newline) and its tally, and the tally of all specs together.
func montageDigests(t *testing.T, specs []WireSpec, jobs int) ([]string, classify.Tally) {
	t.Helper()
	grid, err := Options{Engine: &core.Engine{Jobs: jobs}}.runGrid(specs)
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(grid))
	var total classify.Tally
	for i, g := range grid {
		h := sha256.New()
		for _, line := range recordLines(t, g) {
			h.Write([]byte(line + "\n"))
		}
		tally := g.Result.Tally
		for _, o := range classify.Outcomes() {
			for k := 0; k < tally.Count(o); k++ {
				total.Add(o)
			}
		}
		lines[i] = fmt.Sprintf("%s sha256=%x benign=%d sdc=%d detected=%d crash=%d", g.Spec.Key, h.Sum(nil),
			tally.Count(classify.Benign), tally.Count(classify.SDC), tally.Count(classify.Detected), tally.Count(classify.Crash))
	}
	return lines, total
}

// TestMontageRecordsPinned pins the files of the fault-free pipeline and
// the records of every Montage cell under every registered model, at jobs
// 1 and 8, against a golden written before the FITS codec and the stage
// kernels moved from per-pixel accessors to row slices: that changes how a
// value is computed, never a value.
func TestMontageRecordsPinned(t *testing.T) {
	specs := montageSpecs()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		lines, _ := montageDigests(t, specs, 1)
		lines = append([]string{montageWorldDigest(t)}, lines...)
		if err := os.WriteFile(montageGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(montageGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if got := montageWorldDigest(t); got != want[0] {
		t.Errorf("the fault-free pipeline's files differ from the golden\n  golden %s\n  got    %s", want[0], got)
	}
	want = want[1:]
	for _, jobs := range []int{1, 8} {
		got, total := montageDigests(t, specs, jobs)
		if len(got) != len(want) {
			t.Fatalf("jobs %d: %d specs, golden has %d", jobs, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("jobs %d: spec %d differs from the golden\n  golden %s\n  got    %s", jobs, i+1, want[i], got[i])
			}
		}
		for _, o := range classify.Outcomes() {
			if total.Count(o) == 0 {
				t.Errorf("jobs %d: no pinned run is %s; the golden proves less than it should", jobs, o)
			}
		}
	}
}
