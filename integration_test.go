// Cross-module integration tests: end-to-end flows that span the vfs,
// core, hdf5, trace, and application layers together, including a campaign
// run against real storage (OSFS) to validate the MemFS substitution.
package ffis

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ffis/internal/apps/nyx"
	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/hdf5"
	"ffis/internal/metainject"
	"ffis/internal/stats"
	"ffis/internal/trace"
	"ffis/internal/vfs"
)

func integrationSim() nyx.SimConfig {
	sim := nyx.DefaultSim()
	sim.N = 24
	sim.NumHalos = 4
	return sim
}

// TestCampaignOnRealStorage runs a small Nyx campaign where each injection
// writes through OSFS onto a real temporary directory instead of MemFS —
// the backends must classify identically for identical fault targets.
func TestCampaignOnRealStorage(t *testing.T) {
	app, err := nyx.NewApp(integrationSim(), nyx.DefaultHalo())
	if err != nil {
		t.Fatal(err)
	}
	sig := core.Config{Model: core.DroppedWrite}.Signature()
	count, err := (&core.Engine{}).Profile(core.CampaignSpec{Workload: app.Workload(), Config: core.CampaignConfig{Fault: core.Config{Model: core.DroppedWrite}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []int64{0, count / 2, count - 1} {
		memFS := vfs.NewMemFS()
		osFS := vfs.NewOSFS(t.TempDir())

		memInj := core.NewInjector(sig, target, stats.NewRNG(1))
		osInj := core.NewInjector(sig, target, stats.NewRNG(1))

		memErr := app.Run(memInj.Wrap(memFS))
		osErr := app.Run(osInj.Wrap(osFS))
		if (memErr == nil) != (osErr == nil) {
			t.Fatalf("target %d: run errors disagree: mem=%v os=%v", target, memErr, osErr)
		}
		memOut := app.Classify(memFS, memErr)
		osOut := app.Classify(osFS, osErr)
		if memOut != osOut {
			t.Fatalf("target %d: outcomes disagree: mem=%s os=%s", target, memOut, osOut)
		}
		// The persisted bytes must be identical too.
		memRaw, _ := vfs.ReadFile(memFS, nyx.OutputPath)
		osRaw, _ := vfs.ReadFile(osFS, nyx.OutputPath)
		if !bytes.Equal(memRaw, osRaw) {
			t.Fatalf("target %d: stored bytes differ between backends", target)
		}
	}
}

// TestTracedInjectionCampaign stacks the full FFIS sandwich — trace
// recorder over injector over MemFS — and checks that the trace shows
// exactly the write stream the profiler predicted.
func TestTracedInjectionCampaign(t *testing.T) {
	app, err := nyx.NewApp(integrationSim(), nyx.DefaultHalo())
	if err != nil {
		t.Fatal(err)
	}
	sig := core.Config{Model: core.BitFlip}.Signature()
	count, err := (&core.Engine{}).Profile(core.CampaignSpec{Workload: app.Workload(), Config: core.CampaignConfig{Fault: core.Config{Model: core.BitFlip}}})
	if err != nil {
		t.Fatal(err)
	}

	base := vfs.NewMemFS()
	inj := core.NewInjector(sig, 3, stats.NewRNG(9))
	rec := trace.NewRecorder(inj.Wrap(base))
	if err := app.Run(rec); err != nil {
		t.Fatal(err)
	}
	profile := trace.Analyze(rec.Log())
	if got := int64(profile.ByPrim[vfs.PrimWrite]); got != count {
		t.Fatalf("trace saw %d writes, profiler predicted %d", got, count)
	}
	if _, fired := inj.Fired(); !fired {
		t.Fatal("injector never fired under the recorder")
	}
	if profile.Errors != 0 {
		t.Fatalf("trace recorded %d errors", profile.Errors)
	}
}

// TestMetadataCorruptionToRepairPipeline walks the complete §V-A story:
// build → corrupt a repairable field → halo finder degrades → diagnose →
// correct → halo finder restored bit-exactly.
func TestMetadataCorruptionToRepairPipeline(t *testing.T) {
	sim := integrationSim()
	field := sim.Generate()
	img, err := nyx.BuildImage(field, sim.N)
	if err != nil {
		t.Fatal(err)
	}
	golden := nyx.FindHalos(field, sim.N, nyx.DefaultHalo()).Render()

	raw := img.Bytes()
	raw[img.Fields.Find("exponentBias")[0].Offset] ^= 0x02 // bias-2: scale 4

	runFinder := func(content []byte) (string, error) {
		fs := vfs.NewMemFS()
		fs.MkdirAll("/plt00000")
		if err := vfs.WriteFile(fs, nyx.OutputPath, content); err != nil {
			return "", err
		}
		cat, err := nyx.RunHaloFinder(fs, nyx.OutputPath, nyx.DefaultHalo())
		if err != nil {
			return "", err
		}
		return cat.Render(), nil
	}

	corrupted, err := runFinder(raw)
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == golden {
		t.Fatal("corruption had no effect")
	}
	fixed, diag, err := metainject.Correct(raw, nyx.DatasetName)
	if err != nil {
		t.Fatal(err)
	}
	if diag != metainject.DiagExponentBias {
		t.Fatalf("diagnosis = %s", diag)
	}
	repaired, err := runFinder(fixed)
	if err != nil {
		t.Fatal(err)
	}
	if repaired != golden {
		t.Fatalf("repair did not restore the golden catalog:\n%s\nvs\n%s", repaired, golden)
	}
}

// TestSweepAcrossFlipWidthsOnNyx exercises the ablation path end-to-end
// and exports it as JSON.
func TestSweepAcrossFlipWidthsOnNyx(t *testing.T) {
	app, err := nyx.NewApp(integrationSim(), nyx.DefaultHalo())
	if err != nil {
		t.Fatal(err)
	}
	w := app.Workload()
	var specs []core.CampaignSpec
	for _, bits := range []int{1, 2, 4, 8} {
		fault := core.Config{Model: core.BitFlip, Feature: core.Feature{FlipBits: bits}}
		specs = append(specs, core.CampaignSpec{Key: fmt.Sprintf("%s/flip%d", w.Name, bits), Workload: w,
			Config: core.CampaignConfig{Fault: fault, Runs: 6, Seed: 11}})
	}
	var results []core.CampaignResult
	for _, r := range (&core.Engine{}).Run(specs) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Spec.Key, r.Err)
		}
		r.Result.Workload = r.Spec.Key
		results = append(results, r.Result)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	// Footnote 3: the Nyx SDC rate stays minimal at wider flips.
	for _, r := range results {
		if rate := r.Tally.Rate(classify.SDC).P(); rate > 0.5 {
			t.Fatalf("%s: SDC rate %.2f implausibly high", r.Workload, rate)
		}
	}
	var buf bytes.Buffer
	if err := core.WriteResultsJSON(&buf, results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "nyx/flip4") {
		t.Fatalf("JSON missing sweep label:\n%s", buf.String())
	}
}

// TestInspectAfterInjectedMetadataWrite drives h5inspect's code path: a
// shorn write aimed exactly at the metadata write leaves a file the parser
// must reject (the metadata block loses its tail sectors).
func TestInspectAfterInjectedMetadataWrite(t *testing.T) {
	sim := integrationSim()
	field := sim.Generate()
	img, err := nyx.BuildImage(field, sim.N)
	if err != nil {
		t.Fatal(err)
	}
	fs := vfs.NewMemFS()
	fs.MkdirAll("/plt00000")
	sig := core.Config{Model: core.DroppedWrite}.Signature()
	// WriteTo's 4 KiB data-chunk writes come first; the metadata write is
	// the next write instance.
	metaWrite := int64((len(img.Data) + 4095) / 4096)
	inj := core.NewInjector(sig, metaWrite, stats.NewRNG(3))
	if err := img.WriteTo(inj.Wrap(fs), nyx.OutputPath); err != nil {
		t.Fatal(err)
	}
	raw, err := vfs.ReadFile(fs, nyx.OutputPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hdf5.Parse(raw); err == nil {
		t.Fatal("dropped metadata write produced a parseable file")
	}
}
