package experiments

import (
	"math"
	"testing"

	"ffis/internal/apps/montage"
	"ffis/internal/classify"
	"ffis/internal/core"
	"ffis/internal/vfs"
)

// fileClassifier is Montage's classification as it was when every stage
// after the injected one ran through storage: the file pipeline on the
// run's world, then the image and ReadMin from it. App.Classify finishes
// in memory and must equal it. (FuzzMontageFinish, in the montage
// package, compares the products themselves.)
type fileClassifier struct {
	cfg       montage.Config
	stage     montage.Stage
	golden    []byte
	goldenMin float64
}

func newFileClassifier(t testing.TB, stage montage.Stage) fileClassifier {
	t.Helper()
	f := fileClassifier{cfg: montage.DefaultConfig(), stage: stage}
	fs := vfs.NewMemFS()
	if err := f.cfg.WriteRawTiles(fs); err != nil {
		t.Fatal(err)
	}
	if err := f.cfg.RunPipeline(fs, montage.StageProject, montage.StageAdd); err != nil {
		t.Fatal(err)
	}
	var err error
	if f.golden, err = vfs.ReadFile(fs, montage.ImagePath); err != nil {
		t.Fatal(err)
	}
	if f.goldenMin, err = montage.ReadMin(fs); err != nil {
		t.Fatal(err)
	}
	return f
}

func (f fileClassifier) classify(fs vfs.FS, runErr error) classify.Outcome {
	if runErr != nil {
		return classify.Crash
	}
	if err := f.cfg.RunPipeline(fs, f.stage+1, montage.StageAdd); err != nil {
		return classify.Crash
	}
	img, err := vfs.ReadFile(fs, montage.ImagePath)
	if err != nil {
		return classify.Crash
	}
	if string(img) == string(f.golden) {
		return classify.Benign
	}
	minV, err := montage.ReadMin(fs)
	if err != nil {
		return classify.Crash
	}
	if math.Abs(minV-f.goldenMin) <= montage.MinTolerance {
		return classify.SDC
	}
	return classify.Detected
}

// TestMontageFinishMatchesFilePipeline: classifying MT1–MT3 runs in memory
// changes no record. For every registered model, write and read families
// alike, at two seeds and jobs 1 and 8, and for MT1 and MT2 on a world
// whose projections sit on an object store with a consistency lag, each
// campaign stores records byte-identical to the same campaign classified
// by the file pipeline.
func TestMontageFinishMatchesFilePipeline(t *testing.T) {
	const runs = 8
	var specs []WireSpec
	for _, cell := range []string{"MT1", "MT2", "MT3"} {
		for _, m := range core.AllModels() {
			for _, seed := range []uint64{2021, 77} {
				specs = append(specs, WireSpec{Cell: cell, Model: m.Name(), Runs: runs, Seed: seed})
			}
		}
	}
	// As in objectWorldSpecs: MT1 writes the projections, MT2 reads them.
	objectWorld, proj := []string{"/proj=object:lag=2", "/mosaic"}, []string{"/proj"}
	specs = append(specs,
		WireSpec{Cell: "MT1", Model: "bit-flip", Runs: runs, Seed: 2021, Mounts: objectWorld, ArmMounts: proj},
		WireSpec{Cell: "MT1", Model: "dropped-write", Runs: runs, Seed: 2021, Mounts: objectWorld, ArmMounts: proj},
		WireSpec{Cell: "MT2", Model: "dropped-write", Runs: runs, Seed: 2021, Mounts: objectWorld},
		WireSpec{Cell: "MT2", Model: "read-bit-flip", Runs: runs, Seed: 2021, Mounts: objectWorld, ArmMounts: proj},
	)
	refs := map[string]fileClassifier{}
	var memory, file []core.CampaignSpec
	for _, ws := range specs {
		w, err := ws.Workload()
		if err != nil {
			t.Fatal(err)
		}
		ref, ok := refs[ws.Cell]
		if !ok {
			ref = newFileClassifier(t, montage.Stage(ws.Cell[2]-'0'))
			refs[ws.Cell] = ref
		}
		memory = append(memory, ws.CampaignSpecOn(w))
		w.Worker, w.Classify = nil, ref.classify
		file = append(file, ws.CampaignSpecOn(w))
	}
	// Spec keys repeat across seeds and worlds; results come in spec order.
	var want [][]string
	for _, g := range (&core.Engine{Jobs: 8}).Run(file) {
		want = append(want, recordLines(t, g))
	}
	outcomes := map[string]int{}
	for _, jobs := range []int{1, 8} {
		for i, g := range (&core.Engine{Jobs: jobs}).Run(memory) {
			ws := specs[i]
			got := recordLines(t, g)
			if len(got) != len(want[i]) {
				t.Fatalf("jobs %d %s seed %d %v: %d records, file pipeline %d", jobs, g.Spec.Key, ws.Seed, ws.Mounts, len(got), len(want[i]))
			}
			for k, line := range want[i] {
				if got[k] != line {
					t.Fatalf("jobs %d %s seed %d %v run %d: record differs from the file pipeline's\n  file   %s\n  memory %s", jobs, g.Spec.Key, ws.Seed, ws.Mounts, k, line, got[k])
				}
			}
			if jobs == 1 {
				for _, rec := range g.Result.Records {
					outcomes[ws.Cell+" "+rec.Outcome.String()]++
				}
			}
		}
	}
	for _, cell := range []string{"MT1", "MT2", "MT3"} {
		for _, o := range []classify.Outcome{classify.Benign, classify.SDC, classify.Detected} {
			if outcomes[cell+" "+o.String()] == 0 {
				t.Errorf("no %s run classified %s; the comparison does not cover it", cell, o)
			}
		}
	}
	t.Logf("outcomes compared: %v", outcomes)
}
