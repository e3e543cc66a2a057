package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"ffis/internal/classify"
	"ffis/internal/stats"
	"ffis/internal/vfs"
)

// runCampaign runs one campaign as a one-spec Engine grid on jobs slots
// (<= 0 selects GOMAXPROCS).
func runCampaign(jobs int, cfg CampaignConfig, w Workload) (CampaignResult, error) {
	grid := (&Engine{Jobs: jobs}).Run([]CampaignSpec{{Workload: w, Config: cfg}})
	return grid[0].Result, grid[0].Err
}

// toyWorkload writes a known pattern and classifies by comparing with the
// golden bytes; it stands in for a real application in campaign tests.
func toyWorkload() Workload {
	golden := bytes.Repeat([]byte{0xA5}, 4096)
	return Workload{
		Name: "toy",
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
		Setup: func(fs vfs.FS) error { return fs.MkdirAll("/out") },
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
			return classify.SDC
		},
	}
}

// runOnce performs one injection run on a freshly built world, with the
// injector armed on the given mounts (none arms the whole file system).
func runOnce(w Workload, sig Signature, target int64, rng *stats.RNG, mounts ...string) (RunRecord, error) {
	rec, _, err := runOnceDrew(w, sig, target, rng, mounts...)
	return rec, err
}

// runOnceDrew is runOnce that also reports whether the run drew from its
// RNG stream.
func runOnceDrew(w Workload, sig Signature, target int64, rng *stats.RNG, mounts ...string) (RunRecord, bool, error) {
	base, err := buildWorld(w)
	if err != nil {
		return RunRecord{}, false, err
	}
	inj := NewInjector(sig, target, rng)
	rec, err := runOnceTimed(base, w, inj, mounts, &stageTimes{})
	return rec, inj.drew.Load(), err
}

// profileArmed counts the target primitive's executions on a freshly built
// world, restricted to the I/O routed to the given mounts.
func profileArmed(w Workload, sig Signature, mounts ...string) (int64, error) {
	base, err := buildWorld(w)
	if err != nil {
		return 0, err
	}
	return profileWorld(base, w, sig, mounts)
}

// goldenSnapshot captures every file under root after a fault-free run on
// a freshly built world.
func goldenSnapshot(w Workload, root string) (map[string][]byte, error) {
	base, err := buildWorld(w)
	if err != nil {
		return nil, err
	}
	if err := runRecovering(w.Run, base); err != nil {
		return nil, fmt.Errorf("core: golden run failed: %w", err)
	}
	return readTree(base, root)
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

func TestProfileCountsWrites(t *testing.T) {
	w := toyWorkload()
	count, err := (&Engine{}).Profile(CampaignSpec{Workload: w, Config: CampaignConfig{Fault: Config{Model: BitFlip}}})
	if err != nil {
		t.Fatal(err)
	}
	if count != 8 { // 4096/512 writes
		t.Fatalf("profiled %d writes, want 8", count)
	}
}

func TestProfileFailsWhenWorkloadFails(t *testing.T) {
	w := Workload{
		Name: "broken",
		Run:  func(fs vfs.FS) error { return errors.New("boom") },
	}
	if _, err := (&Engine{}).Profile(CampaignSpec{Workload: w, Config: CampaignConfig{Fault: Config{Model: BitFlip}}}); err == nil {
		t.Fatal("expected profiling error")
	}
}

func TestCampaignBitFlipAlwaysCorrupts(t *testing.T) {
	res, err := runCampaign(0, CampaignConfig{
		Fault: Config{Model: BitFlip},
		Runs:  50,
		Seed:  1,
	}, toyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if res.ProfileCount != 8 {
		t.Fatalf("profile count = %d", res.ProfileCount)
	}
	if res.Tally.Total() != 50 {
		t.Fatalf("tally total = %d", res.Tally.Total())
	}
	// Every bit flip in this workload lands in real data: all runs SDC.
	if res.Tally.Count(classify.SDC) != 50 {
		t.Fatalf("SDC = %d, want 50: %s", res.Tally.Count(classify.SDC), res.Tally.String())
	}
	for _, rec := range res.Records {
		if !rec.Fired {
			t.Fatalf("run %d never fired (target %d)", rec.Index, rec.Target)
		}
		if rec.Target < 0 || rec.Target >= 8 {
			t.Fatalf("target %d out of profile range", rec.Target)
		}
	}
}

func TestCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []classify.Outcome {
		res, err := runCampaign(workers, CampaignConfig{
			Fault: Config{Model: BitFlip},
			Runs:  30,
			Seed:  42,
		}, toyWorkload())
		if err != nil {
			t.Fatal(err)
		}
		out := make([]classify.Outcome, len(res.Records))
		for i, r := range res.Records {
			out[i] = r.Outcome
		}
		return out
	}
	serial := run(1)
	parallel := run(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("run %d differs between worker counts", i)
		}
	}
}

func TestCampaignDroppedWriteNeverBenignHere(t *testing.T) {
	res, err := runCampaign(0, CampaignConfig{
		Fault: Config{Model: DroppedWrite},
		Runs:  20,
		Seed:  2,
	}, toyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Count(classify.Benign) != 0 {
		t.Fatalf("dropped writes produced benign runs: %s", res.Tally.String())
	}
}

func TestCampaignShornWriteOnUniformDataIsBenign(t *testing.T) {
	// The toy workload writes a uniform pattern in 512-byte sequential
	// chunks, so stale one-sector-lagged data equals the new data: shorn
	// writes are masked — the Nyx phenomenology in miniature.
	res, err := runCampaign(0, CampaignConfig{
		Fault: Config{Model: ShornWrite},
		Runs:  20,
		Seed:  3,
	}, toyWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if res.Tally.Count(classify.Benign) != 20 {
		t.Fatalf("expected all benign, got %s", res.Tally.String())
	}
}

func TestCampaignRejectsZeroRuns(t *testing.T) {
	if _, err := runCampaign(0, CampaignConfig{Fault: Config{Model: BitFlip}}, toyWorkload()); err == nil {
		t.Fatal("expected error for Runs=0")
	}
}

func TestCampaignNoTargets(t *testing.T) {
	w := Workload{
		Name: "no-io",
		Run:  func(fs vfs.FS) error { return nil },
	}
	_, err := runCampaign(0, CampaignConfig{Fault: Config{Model: BitFlip}, Runs: 5}, w)
	if !errors.Is(err, ErrNoTargets) {
		t.Fatalf("err = %v, want ErrNoTargets", err)
	}
}

// statHostModel claims to host stat, a primitive the injector passes
// through without intercepting. It is deliberately left unregistered so the
// conformance suite (which would reject it) never sees it.
type statHostModel struct{ BaseModel }

func (statHostModel) Name() string        { return "stat-host" }
func (statHostModel) Short() string       { return "ST" }
func (statHostModel) Host() vfs.Primitive { return vfs.PrimStat }
func (statHostModel) Describe() string    { return "hosts stat (test-only, unregistered)" }

// TestProfileCountsOnlyInterceptedInstances pins that the profiler counts
// exactly what the injector can claim: a model hosting a primitive the
// injector never intercepts profiles zero instances and the campaign
// starves with ErrNoTargets, instead of running every injection unfired
// and tallying a spurious 100% benign.
func TestProfileCountsOnlyInterceptedInstances(t *testing.T) {
	w := Workload{
		Name:  "stat-only",
		Setup: func(fs vfs.FS) error { return vfs.WriteFile(fs, "/in", []byte("x")) },
		Run: func(fs vfs.FS) error {
			for i := 0; i < 4; i++ {
				if _, err := fs.Stat("/in"); err != nil {
					return err
				}
			}
			return nil
		},
	}
	cfg := CampaignConfig{Fault: Config{Model: statHostModel{}}, Runs: 5, Seed: 1}
	if err := cfg.Fault.Signature().Validate(); err != nil {
		t.Fatalf("signature must pass validation for the test to mean anything: %v", err)
	}
	grid := (&Engine{Jobs: 2}).Run([]CampaignSpec{{Workload: w, Config: cfg}})
	if !errors.Is(grid[0].Err, ErrNoTargets) {
		t.Fatalf("Engine.Run err = %v (tally %s), want ErrNoTargets",
			grid[0].Err, grid[0].Result.Tally.String())
	}
	if _, err := runCampaign(0, cfg, w); !errors.Is(err, ErrNoTargets) {
		t.Fatalf("GOMAXPROCS grid err = %v, want ErrNoTargets", err)
	}
}

func TestRunRecoveringCatchesPanics(t *testing.T) {
	w := Workload{
		Name: "panics",
		Run: func(fs vfs.FS) error {
			var s []int
			_ = s[3] // index out of range
			return nil
		},
		Classify: func(fs vfs.FS, runErr error) classify.Outcome {
			if runErr != nil {
				return classify.Crash
			}
			return classify.Benign
		},
	}
	rec, err := runOnce(w, Config{Model: BitFlip}.Signature(), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Outcome != classify.Crash {
		t.Fatalf("outcome = %s, want crash", rec.Outcome)
	}
	if rec.RunErr == nil || !strings.Contains(rec.RunErr.Error(), "panic") {
		t.Fatalf("runErr = %v", rec.RunErr)
	}
}

func TestRunOnceDefaultClassification(t *testing.T) {
	w := Workload{
		Name: "silent",
		Run:  func(fs vfs.FS) error { return vfs.WriteFile(fs, "/f", []byte("x")) },
	}
	rec, err := runOnce(w, Config{Model: BitFlip}.Signature(), 99, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Outcome != classify.Benign {
		t.Fatalf("outcome = %s", rec.Outcome)
	}
}

func TestGoldenSnapshotAndSnapshot(t *testing.T) {
	w := toyWorkload()
	snap, err := goldenSnapshot(w, "/")
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d files", len(snap))
	}
	data, ok := snap["/out/data.bin"]
	if !ok || len(data) != 4096 {
		t.Fatalf("missing golden file: %v", snap)
	}
}

func TestCampaignResultCellLabel(t *testing.T) {
	res := CampaignResult{Workload: "nyx", Signature: Config{Model: DroppedWrite}.Signature()}
	if got := res.Cell().Label; got != "nyx/DW" {
		t.Fatalf("label = %q", got)
	}
}

func TestCampaignRunErrorPropagates(t *testing.T) {
	w := Workload{
		Name:  "setup-fails-sometimes",
		Setup: func(fs vfs.FS) error { return fmt.Errorf("setup exploded") },
		Run:   func(fs vfs.FS) error { return vfs.WriteFile(fs, "/f", []byte("x")) },
	}
	if _, err := runCampaign(0, CampaignConfig{Fault: Config{Model: BitFlip}, Runs: 2}, w); err == nil {
		t.Fatal("expected setup error to propagate")
	}
}
