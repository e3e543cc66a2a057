package results

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ffis/internal/core"
	"ffis/internal/experiments"
)

// TestReportGoldenAfterResume is the CI smoke gate for the whole durability
// stack on a real application: a short MT2 bit-flip campaign streams its
// records to a store through the experiments wiring (Options.RunGrid,
// exactly what the CLIs' -out flag installs), the store is "killed" halfway
// (in-order prefix plus a torn final line — the honest crash artifact),
// resumed to completion, and the re-rendered report must match the
// checked-in golden byte for byte — as must the resumed record file against
// the uninterrupted run's.
//
// Regenerate the golden after an intentional behavior change with:
//
//	UPDATE_GOLDEN=1 go test -run TestReportGoldenAfterResume ./internal/results/
func TestReportGoldenAfterResume(t *testing.T) {
	const (
		cell   = "MT2"
		key    = "MT2/BF"
		runs   = 30
		seed   = 7
		golden = "testdata/report_mt2_resume.golden"
	)
	runCell := func(st *Store) core.CampaignResult {
		t.Helper()
		o := experiments.Options{
			Engine: &core.Engine{Jobs: 2},
			RunGrid: func(e *core.Engine, specs []core.CampaignSpec) ([]core.GridResult, error) {
				return RunGrid(e, st, specs)
			},
		}
		res, err := experiments.Fig7Cell(experiments.WireSpec{Cell: cell, Model: "bit-flip", Runs: runs, Seed: seed}, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Uninterrupted reference run.
	ref := t.TempDir()
	refStore, err := Create(ref, Manifest{Seed: seed, Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	runCell(refStore)
	refBytes, err := os.ReadFile(refStore.finalPath(key))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted store: the reference file cut to a prefix of its record
	// lines plus a torn tail, exactly what a kill mid-append leaves.
	dir := t.TempDir()
	st, err := Create(dir, Manifest{Seed: seed, Runs: runs})
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(refBytes, []byte("\n"))
	prefix := bytes.Join(lines[:1+runs/2], nil) // header + half the records
	prefix = append(prefix, []byte(`{"index":15,"target":3,"outc`)...)
	if err := os.WriteFile(st.partialPath(key), prefix, 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume to completion and compare everything.
	resumed, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	runCell(resumed)
	gotBytes, err := os.ReadFile(resumed.finalPath(key))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, refBytes) {
		t.Fatalf("resumed record file differs from the uninterrupted run (%d vs %d bytes)",
			len(gotBytes), len(refBytes))
	}

	report, err := Report(resumed, "text")
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(report), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated:\n%s", report)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if report != string(want) {
		t.Fatalf("report drifted from golden.\n--- got ---\n%s--- want ---\n%s", report, want)
	}
}
