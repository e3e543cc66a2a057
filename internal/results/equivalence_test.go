package results

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/vfs"
)

// The seed-pinned equivalence suite: an interrupted-then-resumed grid must
// produce record files byte-identical to an uninterrupted single-process
// run — at worker widths 1 and 8 — because every run's RNG stream derives
// purely from (seed, run index). The distributed kill-worker test in
// internal/campaignd carries the same invariant across machines.

const (
	eqSeed = 42
	eqRuns = 30
)

// eqWorkload is a small deterministic workload with a spread of outcomes:
// it writes a known pattern block by block and classifies by comparing
// against the golden bytes, detecting truncation explicitly.
func eqWorkload() core.Workload {
	golden := make([]byte, 4096)
	for i := range golden {
		golden[i] = byte(i * 31)
	}
	return core.Workload{
		Name:  "eq",
		Setup: func(fs vfs.FS) error { return fs.MkdirAll("/out") },
		Run: func(fs vfs.FS) error {
			f, err := fs.Create("/out/data.bin")
			if err != nil {
				return err
			}
			defer f.Close()
			for off := 0; off < len(golden); off += 512 {
				if _, err := f.Write(golden[off : off+512]); err != nil {
					return err
				}
			}
			return nil
		},
		Classify: func(fs vfs.FS, runErr error) classify.Outcome {
			if runErr != nil {
				return classify.Crash
			}
			got, err := vfs.ReadFile(fs, "/out/data.bin")
			if err != nil {
				return classify.Crash
			}
			if bytes.Equal(got, golden) {
				return classify.Benign
			}
			if len(got) != len(golden) {
				return classify.Detected
			}
			return classify.SDC
		},
	}
}

func eqSpecs() []core.CampaignSpec {
	var specs []core.CampaignSpec
	for _, model := range []string{"bit-flip", "dropped-write"} {
		m := core.MustModel(model)
		specs = append(specs, core.CampaignSpec{
			Key:      "eq/" + m.Short(),
			Workload: eqWorkload(),
			Config: core.CampaignConfig{
				Fault: core.Config{Model: m},
				Runs:  eqRuns,
				Seed:  eqSeed,
			},
		})
	}
	return specs
}

// runGridInto executes the eq grid into a fresh store at dir.
func runGridInto(t *testing.T, dir string, workers int) []core.GridResult {
	t.Helper()
	st, err := Create(dir, Manifest{Seed: eqSeed, Runs: eqRuns})
	if err != nil {
		t.Fatal(err)
	}
	grid, err := RunGrid(&core.Engine{Jobs: workers}, st, eqSpecs())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range grid {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Spec.Key, r.Err)
		}
	}
	return grid
}

// recordBytes reads the finalized record file of a spec key.
func recordBytes(t *testing.T, dir, key string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, recordsDir, encodeKey(key)+finalExt))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func assertStoresIdentical(t *testing.T, label, wantDir, gotDir string) {
	t.Helper()
	for _, spec := range eqSpecs() {
		want := recordBytes(t, wantDir, spec.Key)
		got := recordBytes(t, gotDir, spec.Key)
		if !bytes.Equal(want, got) {
			t.Fatalf("%s: spec %s: record files differ (%d vs %d bytes)", label, spec.Key, len(want), len(got))
		}
	}
}

func assertTalliesMatch(t *testing.T, label string, want, got []core.GridResult) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d grid results", label, len(want), len(got))
	}
	for i := range want {
		if want[i].Result.Tally != got[i].Result.Tally {
			t.Fatalf("%s: spec %s tally %v, want %v", label, got[i].Spec.Key,
				got[i].Result.Tally, want[i].Result.Tally)
		}
		if want[i].Result.ProfileCount != got[i].Result.ProfileCount {
			t.Fatalf("%s: spec %s profile count diverged", label, got[i].Spec.Key)
		}
	}
}

// TestUninterruptedStoreIsWorkerIndependent proves the store's in-order
// writer makes the persisted bytes independent of scheduling: the same grid
// at pool widths 1 and 8 writes byte-identical files.
func TestUninterruptedStoreIsWorkerIndependent(t *testing.T) {
	d1, d8 := t.TempDir(), t.TempDir()
	g1 := runGridInto(t, d1, 1)
	g8 := runGridInto(t, d8, 8)
	assertStoresIdentical(t, "workers 1 vs 8", d1, d8)
	assertTalliesMatch(t, "workers 1 vs 8", g1, g8)
}

// TestInterruptedThenResumedGridIsBitIdentical kills a grid halfway (every
// spec half-persisted, one with a torn final line — the honest crash
// artifact) and resumes it; the resumed store must be byte-identical to an
// uninterrupted run, at workers 1 and 8.
func TestInterruptedThenResumedGridIsBitIdentical(t *testing.T) {
	for _, workers := range []int{1, 8} {
		ref := t.TempDir()
		refGrid := runGridInto(t, ref, workers)

		// Interrupted store: each spec's campaign runs through a real
		// engine+sink pass until its sink, having persisted the first half
		// of the indices, fails the next record as a kill between two
		// records would — the way a lost lease stops a worker. Dispatch
		// stops, the in-flight runs drain, the in-order prefix stays on
		// disk, and the sink is abandoned without finalizing: what a
		// mid-grid kill leaves behind.
		dir := t.TempDir()
		st, err := Create(dir, Manifest{Seed: eqSeed, Runs: eqRuns})
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range eqSpecs() {
			sink, err := st.SpecSink(spec.Key, eqRuns)
			if err != nil {
				t.Fatal(err)
			}
			cfg := spec.Config
			cfg.Sink = &killAfter{SpecSink: sink, n: eqRuns / 2}
			if _, err := runCampaign(workers, cfg, spec.Workload); !errors.Is(err, errKilled) {
				t.Fatalf("interrupted campaign: err = %v, want errKilled", err)
			}
			if err := sink.Close(); err != nil { // no Finalize: the "kill"
				t.Fatal(err)
			}
		}
		// Torn final line on one spec: the kill landed mid-write.
		torn := filepath.Join(dir, recordsDir, encodeKey("eq/BF")+partialExt)
		f, err := os.OpenFile(torn, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"index":15,"target":9,"outc`); err != nil {
			t.Fatal(err)
		}
		f.Close()

		// Resume and compare.
		st2, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		grid, err := RunGrid(&core.Engine{Jobs: workers}, st2, eqSpecs())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range grid {
			if r.Err != nil {
				t.Fatalf("workers %d: resume %s: %v", workers, r.Spec.Key, r.Err)
			}
		}
		assertStoresIdentical(t, "resumed", ref, dir)
		assertTalliesMatch(t, "resumed", refGrid, grid)
	}
}

// errKilled is the simulated death of a process whose sink is a killAfter.
var errKilled = errors.New("results test: killed between two records")

// killAfter persists the first n records through its SpecSink and fails
// every later one with errKilled.
type killAfter struct {
	*SpecSink
	n int
}

func (k *killAfter) Record(rec core.RunRecord) error {
	if k.SpecSink.Persisted() >= k.n {
		return errKilled
	}
	return k.SpecSink.Record(rec)
}

// TestResumeOfCompleteStoreRunsNothing proves finalized specs load from
// disk: resuming a finished grid must not execute a single application run.
func TestResumeOfCompleteStoreRunsNothing(t *testing.T) {
	dir := t.TempDir()
	first := runGridInto(t, dir, 4)

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	specs := eqSpecs()
	for i := range specs {
		specs[i].Workload.Run = func(vfs.FS) error {
			t.Fatal("resume of a finalized spec re-ran the workload")
			return nil
		}
	}
	grid, err := RunGrid(&core.Engine{Jobs: 4}, st, specs)
	if err != nil {
		t.Fatal(err)
	}
	assertTalliesMatch(t, "finalized reload", first, grid)
	for _, r := range grid {
		if len(r.Result.Records) != eqRuns {
			t.Fatalf("%s reloaded %d records, want %d", r.Spec.Key, len(r.Result.Records), eqRuns)
		}
	}
}

// TestResumeRejectsNonPrefixPartial: a partial file whose records are not
// exactly runs [0, k) — a gap, or the odd indices a static shard of an older
// layout wrote — cannot be extended without appending after the gap, so the
// sink must refuse to open it.
func TestResumeRejectsNonPrefixPartial(t *testing.T) {
	for _, indices := range [][]int{{0, 1, 3}, {1, 3, 5}} {
		st, err := Create(t.TempDir(), Manifest{Seed: eqSeed, Runs: eqRuns})
		if err != nil {
			t.Fatal(err)
		}
		writeRecordFile(t, st.partialPath("eq/BF"), eqHeader(0), indices...)
		if _, err := st.SpecSink("eq/BF", eqRuns); err == nil ||
			!strings.Contains(err.Error(), "not a resumable prefix") {
			t.Fatalf("partial holding runs %v: err = %v, want the non-prefix refusal", indices, err)
		}
	}
}
